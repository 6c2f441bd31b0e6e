// Leader-based replication — the paper's §1 motivating application.
//
// A minimal replicated log ("state machine approach", Lamport [12]) built on
// the leader-election service: clients submit commands to whichever process
// the service currently designates as leader; the leader assigns a slot and
// replicates the command to its followers. Leader election keeps exactly one
// writer at a time (in the steady state), and the stability of Omega_lc/
// Omega_l means a healthy writer is never demoted for spurious reasons —
// demotion happens only when the writer really crashes.
//
// The replication protocol here is deliberately simple (no quorums; followers
// trust the current leader's slot assignment) — the point of the example is
// how an application consumes the election API: candidacy, the interrupt
// callback, and query-mode reads.
#include <deque>
#include <iostream>
#include <map>

#include "election/elector.hpp"
#include "net/sim_network.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

using namespace omega;

namespace {

constexpr std::size_t kNodes = 5;
const group_id kGroup{7};

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }

/// One replica: an application process colocated with a service instance.
/// Replicas exchange REPLICATE messages on their own little port — the
/// election service does not (and should not) carry application traffic.
class replica {
 public:
  replica(node_id self, sim::simulator& sim,
          service::leader_election_service& svc)
      : self_(self), sim_(sim), svc_(svc) {}

  void on_leader_change(std::optional<process_id> leader) {
    leader_ = leader;
    if (leader_ && leader_->value() == self_.value()) {
      if (!i_am_leader_) {
        i_am_leader_ = true;
        std::cout << "    [t=" << to_seconds(sim_.now() - time_origin)
                  << "s] node " << self_.value()
                  << " takes over as writer at slot " << next_slot_ << "\n";
      }
    } else {
      i_am_leader_ = false;
    }
  }

  /// A client hands a command to this replica; it is accepted only if this
  /// replica currently believes it is the leader (otherwise the client must
  /// retry against the real leader — standard leader-based service shape).
  bool submit(const std::string& command, std::vector<replica*>& peers) {
    if (!i_am_leader_) return false;
    const std::uint64_t slot = next_slot_++;
    apply(slot, command);
    for (replica* peer : peers) {
      if (peer != this) peer->replicate(slot, command);
    }
    return true;
  }

  void replicate(std::uint64_t slot, const std::string& command) {
    // Followers accept the leader's assignment.
    apply(slot, command);
    next_slot_ = std::max(next_slot_, slot + 1);
  }

  [[nodiscard]] const std::map<std::uint64_t, std::string>& log() const {
    return log_;
  }
  [[nodiscard]] bool is_leader() const { return i_am_leader_; }
  [[nodiscard]] node_id id() const { return self_; }

 private:
  void apply(std::uint64_t slot, const std::string& command) {
    log_[slot] = command;
  }

  node_id self_;
  sim::simulator& sim_;
  service::leader_election_service& svc_;
  std::optional<process_id> leader_;
  bool i_am_leader_ = false;
  std::uint64_t next_slot_ = 0;
  std::map<std::uint64_t, std::string> log_;
};

}  // namespace

int main() {
  sim::simulator sim;
  net::sim_network net(sim, kNodes, net::link_profile::lossy(msec(1), 0.01),
                       rng{7});

  std::vector<node_id> roster;
  for (std::size_t i = 0; i < kNodes; ++i) roster.push_back(nid(i));

  std::vector<std::unique_ptr<service::leader_election_service>> services;
  std::vector<std::unique_ptr<replica>> replicas;
  std::vector<replica*> peers;

  for (node_id node : roster) {
    service::service_config cfg;
    cfg.self = node;
    cfg.roster = roster;
    cfg.alg = election::algorithm::omega_lc;  // S2: robust choice
    auto svc = std::make_unique<service::leader_election_service>(
        sim, sim, net.endpoint(node), cfg);
    auto rep = std::make_unique<replica>(node, sim, *svc);

    const process_id pid{node.value()};
    svc->register_process(pid);
    service::join_options opts;
    opts.candidate = true;
    opts.qos = fd::qos_spec::paper_default();
    replica* rep_ptr = rep.get();
    svc->join_group(pid, kGroup, opts,
                    [rep_ptr](group_id, std::optional<process_id> leader) {
                      rep_ptr->on_leader_change(leader);
                    });

    services.push_back(std::move(svc));
    replicas.push_back(std::move(rep));
    peers.push_back(replicas.back().get());
  }

  sim.run_until(sim.now() + sec(3));

  // A "client" that retries against whoever is leader, submitting one
  // command every 100 ms of simulated time.
  std::size_t accepted = 0, submitted = 0;
  auto submit_one = [&](const std::string& cmd) {
    ++submitted;
    for (auto& rep : replicas) {
      if (rep && rep->submit(cmd, peers)) {
        ++accepted;
        return;
      }
    }
  };

  std::cout << "-- phase 1: steady-state writes through the elected writer\n";
  for (int i = 0; i < 20; ++i) {
    submit_one("put k" + std::to_string(i));
    sim.run_until(sim.now() + msec(100));
  }

  std::cout << "-- phase 2: crash the writer mid-stream\n";
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i] && replicas[i]->is_leader()) {
      std::cout << "    crashing node " << i << "\n";
      net.set_node_alive(nid(i), false);
      // Remove the dead replica from the peer list (its memory lives on,
      // modelling a crashed process that no longer participates).
      peers.erase(std::remove(peers.begin(), peers.end(), replicas[i].get()),
                  peers.end());
      services[i].reset();
      replicas[i].reset();
      break;
    }
  }
  for (int i = 20; i < 40; ++i) {
    submit_one("put k" + std::to_string(i));
    sim.run_until(sim.now() + msec(100));
  }

  // Check replication: all surviving replicas hold identical logs.
  const std::map<std::uint64_t, std::string>* reference = nullptr;
  bool consistent = true;
  for (const auto& rep : replicas) {
    if (!rep) continue;
    if (reference == nullptr) {
      reference = &rep->log();
    } else if (rep->log() != *reference) {
      consistent = false;
    }
  }

  std::cout << "-- results: " << accepted << "/" << submitted
            << " commands accepted (rejections happen while the group is "
               "between leaders)\n";
  std::cout << "-- replicated log length: "
            << (reference ? reference->size() : 0) << ", replicas consistent: "
            << (consistent ? "yes" : "NO") << "\n";
  return consistent ? 0 : 1;
}
