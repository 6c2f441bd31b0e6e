// Exactness of the reconfiguration pass's skip: a remote whose last solve
// saw the same heartbeat count under the same config epoch is not
// re-solved. Seeded random runs of heartbeats (with loss and jitter),
// silences, override set/clear, group re-registration with a changed QoS,
// drop and reincarnation check after every pass that each monitored
// (group, remote) pair holds exactly what a fresh solve gives: the plan's
// override, else configure(qos, link_quality(remote)). A silent remote
// must still get its periodic RATE_REQ refresh.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "fd/fd_manager.hpp"
#include "sim/simulator.hpp"

namespace omega::fd {
namespace {

const group_id g1{1};
const group_id g2{2};
const group_id g3{3};
constexpr std::uint32_t kRemotes = 5;  // nodes 1..kRemotes

qos_spec qos_with(duration detection) {
  qos_spec q = qos_spec::paper_default();
  q.detection_time = detection;
  return q;
}

class ResolveExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResolveExactness, EveryPairMatchesAFreshSolveAfterEachPass) {
  rng r{GetParam()};
  sim::simulator sim;
  fd_manager fd(sim, sim);
  fd_manager::resolve_counts counts;
  fd.set_resolve_counts(&counts);
  fd.start();

  // The test's model: registered QoS per group, monitored pairs, and each
  // remote's current incarnation and next sequence number.
  std::map<group_id, qos_spec> qos{{g1, qos_with(sec(1))}, {g2, qos_with(sec(3))}};
  for (const auto& [g, q] : qos) fd.add_group(g, q);
  std::set<std::pair<group_id, node_id>> monitored;
  std::map<node_id, incarnation> incs;
  std::map<node_id, std::uint64_t> seqs;
  const std::vector<group_id> all_groups{g1, g2, g3};

  const auto heartbeat = [&](node_id from, incarnation inc) {
    proto::alive_msg msg;
    msg.from = from;
    msg.inc = inc;
    seqs[from] += 1 + (r.bernoulli(0.1) ? r.uniform_below(3) : 0);  // loss
    msg.seq = seqs[from];
    msg.send_time = sim.now() - usec(200 + static_cast<std::int64_t>(r.uniform_below(
                                               20000 * (1 + from.value() % 3))));
    msg.eta = msec(250);
    for (group_id g : all_groups) {
      if (!r.bernoulli(0.7)) continue;
      proto::group_payload p;
      p.group = g;
      p.pid = process_id{from.value()};
      msg.groups.push_back(p);
    }
    auto known = incs.find(from);
    if (known != incs.end() && inc < known->second) {
      fd.on_alive(msg, sim.now());  // stale: must change nothing
      return;
    }
    if (known == incs.end() || inc > known->second) {
      std::erase_if(monitored, [&](const auto& pair) { return pair.second == from; });
    }
    incs[from] = inc;
    for (const auto& p : msg.groups) {
      if (qos.count(p.group)) monitored.emplace(p.group, from);
    }
    fd.on_alive(msg, sim.now());
  };

  const fd_params pinned{msec(100), msec(900), true};
  const fd_params refined{msec(200), msec(800), true};

  for (int tick = 1; tick <= 90; ++tick) {
    const time_point tick_at = time_origin + sec(tick);
    // Roughly half the remotes are silent this second.
    std::vector<node_id> active;
    for (std::uint32_t n = 1; n <= kRemotes; ++n) {
      if (r.bernoulli(0.5)) active.push_back(node_id{n});
    }
    // Mostly heartbeats; a config change now and then, so each one is
    // often the only change a silent remote sees before the next pass.
    const int actions = static_cast<int>(r.uniform_below(8));
    for (int a = 0; a < actions; ++a) {
      sim.run_until(tick_at - sec(1) +
                    msec(2 + static_cast<std::int64_t>(r.uniform_below(996))));
      const node_id node{1 + static_cast<std::uint32_t>(r.uniform_below(kRemotes))};
      const group_id g = all_groups[r.uniform_below(all_groups.size())];
      const std::uint64_t roll = r.bernoulli(0.8) ? 0 : r.uniform_below(100);
      if (roll < 70) {
        if (active.empty()) continue;
        const node_id from = active[r.uniform_below(active.size())];
        heartbeat(from, incs.count(from) ? incs[from] : 1);
      } else if (roll < 74) {
        fd.set_params_override(g, pinned);
      } else if (roll < 78) {
        fd.set_params_override(g, node, refined);
      } else if (roll < 82) {
        fd.clear_params_override(g);
      } else if (roll < 86) {
        fd.clear_params_override(g, node);
      } else if (roll < 90) {  // (re-)register with a changed QoS
        qos[g] = qos_with(msec(500 * (1 + static_cast<std::int64_t>(r.uniform_below(6)))));
        fd.add_group(g, qos[g]);
      } else if (roll < 93) {
        fd.drop(g, node);
        monitored.erase({g, node});
      } else if (roll < 95) {
        fd.remove_group(g);
        qos.erase(g);
        std::erase_if(monitored, [&](const auto& pair) { return pair.first == g; });
      } else if (roll < 98) {  // reincarnation (or a stale heartbeat)
        const incarnation cur = incs.count(node) ? incs[node] : 0;
        heartbeat(node, cur > 1 && r.bernoulli(0.2) ? cur - 1 : cur + 1);
      } else {
        fd.drop_node(node);
        incs.erase(node);
        seqs.erase(node);
        std::erase_if(monitored, [&](const auto& pair) { return pair.second == node; });
      }
    }
    sim.run_until(tick_at + usec(1));  // the pass at tick_at has run

    ASSERT_EQ(fd.monitor_count(), monitored.size()) << "tick " << tick;
    for (const auto& [g, node] : monitored) {
      const fd_params expected =
          fd.params_override(g, node).value_or(configure(qos.at(g), fd.link_quality(node)));
      ASSERT_EQ(fd.current_params(g, node), expected)
          << "tick " << tick << " group " << g.value() << " remote " << node.value();
    }
  }
  EXPECT_GT(counts.skipped, 0u);
  EXPECT_GT(counts.solved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolveExactness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(ResolveExactness, EachInvalidationForcesOneSolve) {
  sim::simulator sim;
  fd_manager fd(sim, sim);
  fd_manager::resolve_counts counts;
  fd.set_resolve_counts(&counts);
  fd.add_group(g1, qos_spec::paper_default());
  fd.add_group(g2, qos_spec::paper_default());
  fd.start();

  constexpr node_id remote{7};
  const auto heartbeat = [&](incarnation inc, std::initializer_list<group_id> groups) {
    proto::alive_msg msg;
    msg.from = remote;
    msg.inc = inc;
    msg.seq = 1;
    msg.send_time = sim.now() - msec(1);
    msg.eta = msec(250);
    for (group_id g : groups) {
      proto::group_payload p;
      p.group = g;
      msg.groups.push_back(p);
    }
    fd.on_alive(msg, sim.now());
  };
  // Runs one pass and returns the (skipped, solved) pairs it counted.
  const auto pass = [&] {
    const fd_manager::resolve_counts before = counts;
    sim.run_until(sim.now() + sec(1));
    return std::pair{counts.skipped - before.skipped, counts.solved - before.solved};
  };
  using visits = std::pair<std::uint64_t, std::uint64_t>;

  heartbeat(1, {g1, g2});
  EXPECT_EQ(pass(), (visits{0, 2})) << "first pass solves";
  EXPECT_EQ(pass(), (visits{2, 0})) << "nothing changed";

  const fd_params pinned{msec(100), msec(900), true};
  const std::vector<std::pair<const char*, std::function<void()>>> invalidations{
      {"add_group with a changed QoS", [&] { fd.add_group(g1, qos_with(sec(2))); }},
      {"group default set", [&] { fd.set_params_override(g1, pinned); }},
      {"refinement set", [&] { fd.set_params_override(g1, remote, pinned); }},
      {"refinement cleared", [&] { fd.clear_params_override(g1, remote); }},
      {"group plan cleared", [&] { fd.clear_params_override(g1); }},
      {"remove_group", [&] { fd.remove_group(g3); }},
  };
  for (const auto& [what, change] : invalidations) {
    change();
    EXPECT_EQ(pass(), (visits{0, 2})) << what;
    EXPECT_EQ(pass(), (visits{2, 0})) << what << ", then nothing";
  }
  fd.drop(g2, remote);
  EXPECT_EQ(pass(), (visits{0, 1})) << "drop";
  // A reincarnation with as many heartbeats as the last solve saw must
  // still re-solve: the estimator restarted from scratch.
  heartbeat(2, {g1});
  EXPECT_EQ(pass(), (visits{0, 1})) << "reincarnation";
  EXPECT_EQ(pass(), (visits{1, 0})) << "reincarnation, then nothing";
}

TEST(ResolveExactness, SilentRemoteStillGetsRateRefresh) {
  sim::simulator sim;
  fd_manager fd(sim, sim);
  fd_manager::resolve_counts counts;
  fd.set_resolve_counts(&counts);
  std::vector<time_point> requests;
  fd.set_rate_request_fn([&](node_id, duration) { requests.push_back(sim.now()); });
  fd.add_group(g1, qos_spec::paper_default());
  fd.start();

  constexpr node_id remote{7};
  for (std::uint64_t seq = 1; seq <= 40; ++seq) {
    sim.run_until(time_origin + msec(100 * static_cast<std::int64_t>(seq)));
    proto::alive_msg msg;
    msg.from = remote;
    msg.inc = 1;
    msg.seq = seq;
    msg.send_time = sim.now() - msec(1);
    msg.eta = msec(100);
    proto::group_payload p;
    p.group = g1;
    msg.groups.push_back(p);
    fd.on_alive(msg, sim.now());
  }
  const time_point last_heard = sim.now();
  ASSERT_FALSE(requests.empty());
  const std::size_t requests_before = requests.size();
  const time_point last_request = requests.back();
  const std::uint64_t skipped_before = counts.skipped;

  // Silent from here on: the re-solve is skipped every pass, but the
  // refresh (every rate_refresh = 20 s) is due within the silence cutoff
  // (30 s), so exactly one more RATE_REQ goes out, then none.
  sim.run_until(last_heard + sec(45));
  EXPECT_GT(counts.skipped, skipped_before);
  ASSERT_EQ(requests.size(), requests_before + 1);
  EXPECT_GE(requests.back() - last_request, sec(20));
  EXPECT_LE(requests.back() - last_heard, sec(30));
}

}  // namespace
}  // namespace omega::fd
