#include "obs/service_export.hpp"

#include <string>

#include "common/time.hpp"
#include "service/service.hpp"

namespace omega::obs {

namespace {

label_set with_node(const service::leader_election_service& svc,
                    label_set extra = {}) {
  extra.emplace_back("node", std::to_string(svc.self().value()));
  return extra;
}

}  // namespace

void export_service_stats(registry& reg,
                          const service::leader_election_service& svc) {
  const service::service_stats& st = svc.stats();

  auto sent = [&](std::string_view kind) -> counter& {
    return reg.get_counter("omega_messages_sent_total",
                           with_node(svc, {{"kind", std::string(kind)}}));
  };
  sent("alive").advance_to(st.alive_sent);
  sent("accuse").advance_to(st.accuse_sent);
  sent("hello").advance_to(st.hello_sent);
  sent("hello_ack").advance_to(st.hello_ack_sent);
  sent("leave").advance_to(st.leave_sent);
  sent("rate_request").advance_to(st.rate_request_sent);

  reg.get_counter("omega_datagrams_received_total", with_node(svc))
      .advance_to(st.datagrams_received);
  reg.get_counter("omega_datagrams_dropped_total",
                  with_node(svc, {{"reason", "malformed"}}))
      .advance_to(st.malformed_received);
  reg.get_counter("omega_datagrams_dropped_total",
                  with_node(svc, {{"reason", "unknown_group"}}))
      .advance_to(st.dropped_unknown_group);

  // Cache effectiveness: how often the elector memo and the FD re-solve
  // skip answered without recomputing.
  auto outcome = [&](std::string_view family, std::string_view label) -> counter& {
    return reg.get_counter(family, with_node(svc, {{"outcome", std::string(label)}}));
  };
  outcome("omega_elector_evaluations_total", "memo").advance_to(st.evaluations.memo);
  outcome("omega_elector_evaluations_total", "evaluated")
      .advance_to(st.evaluations.evaluated);
  outcome("omega_fd_resolve_total", "skipped").advance_to(st.fd_resolves.skipped);
  outcome("omega_fd_resolve_total", "solved").advance_to(st.fd_resolves.solved);

  for (const auto& [group, hs] : st.hello_by_group) {
    label_set labels =
        with_node(svc, {{"group", std::to_string(group.value())}});
    reg.get_counter("omega_hello_emissions_total", labels)
        .advance_to(hs.hellos);
    reg.get_counter("omega_hello_destinations_total", std::move(labels))
        .advance_to(hs.destinations);
  }

  reg.get_gauge("omega_heartbeat_interval_seconds", with_node(svc))
      .set(to_seconds(svc.current_eta()));
}

}  // namespace omega::obs
