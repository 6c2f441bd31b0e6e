// Quickstart: elect and maintain a leader in a simulated 5-node cluster.
//
// Demonstrates the whole public API surface in ~80 lines:
//   1. build a substrate (here the deterministic simulator; see udp_live.cpp
//      for the real-time UDP runtime — the service code is identical),
//   2. start one leader_election_service per workstation,
//   3. register a process and join a group with an FD QoS,
//   4. observe leader changes through the interrupt callback,
//   5. crash the current leader and watch the service re-elect.
#include <iostream>

#include "election/elector.hpp"
#include "net/sim_network.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

using namespace omega;

namespace {

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }

}  // namespace

int main() {
  constexpr std::size_t kNodes = 5;
  const group_id kGroup{1};

  // Substrate: virtual clock + fully connected network with LAN-like links.
  sim::simulator sim;
  net::sim_network net(sim, kNodes, net::link_profile::lan(), rng{2024});

  std::vector<node_id> roster;
  for (std::size_t i = 0; i < kNodes; ++i) roster.push_back(nid(i));

  // One service instance per workstation, one application process on each.
  std::vector<std::unique_ptr<service::leader_election_service>> services;
  for (node_id node : roster) {
    service::service_config cfg;
    cfg.self = node;
    cfg.roster = roster;
    cfg.alg = election::algorithm::omega_l;  // S3: the message-efficient one
    auto svc = std::make_unique<service::leader_election_service>(
        sim, sim, net.endpoint(node), cfg);

    const process_id pid{node.value()};
    svc->register_process(pid);

    service::join_options opts;
    opts.candidate = true;
    opts.qos.detection_time = sec(1);  // T^U_D: detect a dead leader in <= 1 s
    svc->join_group(pid, kGroup, opts,
                    [node](group_id, std::optional<process_id> leader) {
                      std::cout << "  [node " << node.value() << "] leader -> "
                                << (leader ? std::to_string(leader->value())
                                           : std::string("(none)"))
                                << "\n";
                    });
    services.push_back(std::move(svc));
  }

  std::cout << "-- letting the cluster settle (5 simulated seconds)\n";
  sim.run_until(sim.now() + sec(5));

  const auto leader = services[0]->leader(kGroup);
  if (!leader) {
    std::cerr << "no leader elected?!\n";
    return 1;
  }
  std::cout << "-- agreed leader: process " << leader->value() << "\n";

  std::cout << "-- crashing the leader's workstation\n";
  const auto dead = node_id{leader->value()};
  net.set_node_alive(dead, false);       // unplug it from the network
  services[leader->value()].reset();     // and kill the service instance

  sim.run_until(sim.now() + sec(5));
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!services[i]) continue;
    const auto now_leader = services[i]->leader(kGroup);
    std::cout << "-- node " << i << " now follows: "
              << (now_leader ? std::to_string(now_leader->value())
                             : std::string("(none)"))
              << "\n";
  }
  return 0;
}
