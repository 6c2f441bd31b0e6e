#include "election/omega_id.hpp"

namespace omega::election {

void omega_id::on_alive_payload(node_id, incarnation, const proto::group_payload&) {
  // Membership and freshness are fully handled by the group-maintenance and
  // failure-detector layers; Omega_id carries no election state of its own.
}

void omega_id::on_fd_transition(node_id, bool) {
  // No accusations in Omega_id: suspicion simply removes the process from
  // the alive set used by evaluate().
}

void omega_id::on_accuse(const proto::accuse_msg&) {}

void omega_id::on_member_removed(const membership::member_info&) {}

std::optional<process_id> omega_id::evaluate() {
  if (ctx_.evaluations) ++ctx_.evaluations->evaluated;
  std::optional<process_id> best;
  for (const auto& m : ctx_.members()) {
    if (!m.candidate) continue;
    const bool alive =
        m.node == ctx_.self_node ? true : (ctx_.is_trusted && ctx_.is_trusted(m.node));
    if (!alive) continue;
    if (!best || m.pid < *best) best = m.pid;
  }
  return best;
}

bool omega_id::should_send_alive() const { return ctx_.candidate; }

void omega_id::fill_payload(proto::group_payload& payload) {
  payload.group = ctx_.group;
  payload.pid = ctx_.self_pid;
  payload.candidate = ctx_.candidate;
  payload.competing = ctx_.candidate;
}

}  // namespace omega::election
