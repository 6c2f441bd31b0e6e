// Hierarchical election — the paper's §7 tiered topology, now a
// first-class subsystem (src/hierarchy/) instead of hand-wired groups.
//
// Nine processes are organized in three regions. A `hierarchy::topology`
// describes the shape (3 regions under one global group); each node runs
// a `hierarchy::hierarchy_coordinator` next to its service instance. The
// coordinator joins the region group as a candidate and the global group
// as a passive listener, and automatically promotes this node into the
// global election when it wins its region (demoting it again when
// regional leadership moves). Regions run the link-crash-tolerant
// omega_lc; the global tier runs the communication-efficient omega_l, so
// listeners never send ALIVE payloads there.
//
// The demo crashes the current global leader's workstation and shows both
// levels healing: its region elects a replacement, the replacement is
// promoted into the global group, and the global group re-elects.
#include <iostream>
#include <vector>

#include "hierarchy/coordinator.hpp"
#include "net/sim_network.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

using namespace omega;

namespace {

constexpr std::size_t kRegions = 3;
constexpr std::size_t kNodes = 9;

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }
process_id pid(std::size_t i) {
  return process_id{static_cast<std::uint32_t>(i)};
}

struct node_state {
  std::unique_ptr<service::leader_election_service> svc;
  std::unique_ptr<hierarchy::hierarchy_coordinator> coord;
};

}  // namespace

int main() {
  sim::simulator sim;
  net::sim_network net(sim, kNodes, net::link_profile::lossy(msec(5), 0.01),
                       rng{99});

  const hierarchy::topology topo =
      hierarchy::topology::two_tier(kNodes, kRegions);

  std::vector<node_id> roster;
  for (std::size_t i = 0; i < kNodes; ++i) roster.push_back(nid(i));

  std::vector<node_state> nodes(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    node_state& st = nodes[i];

    service::service_config cfg;
    cfg.self = nid(i);
    cfg.roster = roster;
    st.svc = std::make_unique<service::leader_election_service>(
        sim, sim, net.endpoint(nid(i)), cfg);

    // The coordinator registers the pid, joins region + global groups and
    // handles promotion/demotion; the callback just narrates promotions.
    // (It can fire during construction, so it must not touch st.coord.)
    const std::size_t region = topo.region_of(nid(i));
    st.coord = std::make_unique<hierarchy::hierarchy_coordinator>(
        *st.svc, topo, pid(i), hierarchy::coordinator_options{},
        [&sim, i, region](std::size_t tier, std::optional<process_id> leader) {
          if (tier != 0 || !leader.has_value()) return;
          if (leader->value() == i) {
            std::cout << "  [t=" << to_seconds(sim.now() - time_origin)
                      << "s] node " << i << " now leads region " << region
                      << " and enters the global election\n";
          }
        });
  }

  sim.run_until(sim.now() + sec(8));

  auto print_state = [&] {
    for (std::size_t r = 0; r < kRegions; ++r) {
      // Ask any live node of the region.
      for (std::size_t i = 0; i < kNodes; ++i) {
        const auto& st = nodes[i];
        if (!st.coord || st.coord->region() != r) continue;
        const auto l = st.coord->leader(0);
        std::cout << "    region " << r << " leader: "
                  << (l ? std::to_string(l->value()) : "(none)") << "\n";
        break;
      }
    }
    for (const auto& st : nodes) {
      if (!st.coord) continue;
      const auto g = st.coord->global_leader();
      std::cout << "    global leader: "
                << (g ? std::to_string(g->value()) : "(none)") << "\n";
      break;
    }
  };

  std::cout << "-- after settling:\n";
  print_state();

  // Find and crash the global leader.
  std::optional<process_id> global_leader;
  for (const auto& st : nodes) {
    if (st.coord) {
      global_leader = st.coord->global_leader();
      break;
    }
  }
  if (!global_leader) {
    std::cerr << "no global leader elected\n";
    return 1;
  }
  const std::size_t victim = global_leader->value();
  std::cout << "-- crashing global leader (node " << victim << ")\n";
  net.set_node_alive(nid(victim), false);
  nodes[victim].coord.reset();  // crash: no goodbyes
  nodes[victim].svc.reset();

  sim.run_until(sim.now() + sec(8));
  std::cout << "-- after healing:\n";
  print_state();

  // Verify: some global leader exists and is not the crashed node.
  for (const auto& st : nodes) {
    if (!st.coord) continue;
    const auto g = st.coord->global_leader();
    if (!g || g->value() == victim) {
      std::cerr << "global level failed to heal\n";
      return 1;
    }
    break;
  }
  std::cout << "-- both levels healed\n";
  return 0;
}
