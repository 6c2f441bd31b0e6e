#include "election/elector.hpp"

#include <algorithm>

#include "election/omega_id.hpp"
#include "election/omega_l.hpp"
#include "election/omega_lc.hpp"

namespace omega::election {

std::string_view to_string(algorithm alg) {
  switch (alg) {
    case algorithm::omega_id:
      return "omega_id (S1)";
    case algorithm::omega_lc:
      return "omega_lc (S2)";
    case algorithm::omega_l:
      return "omega_l (S3)";
    case algorithm::omega_lc_noforward:
      return "omega_lc w/o forwarding (ablation)";
    case algorithm::omega_l_nophase:
      return "omega_l w/o phase guard (ablation)";
  }
  return "unknown";
}

const membership::member_info* find_member(
    const std::vector<membership::member_info>& members, process_id pid) {
  auto it = std::lower_bound(
      members.begin(), members.end(), pid,
      [](const membership::member_info& m, process_id p) { return m.pid < p; });
  return it != members.end() && it->pid == pid ? &*it : nullptr;
}

std::unique_ptr<elector> make_elector(algorithm alg, elector_context ctx) {
  switch (alg) {
    case algorithm::omega_id:
      return std::make_unique<omega_id>(std::move(ctx));
    case algorithm::omega_lc:
      return std::make_unique<omega_lc>(std::move(ctx));
    case algorithm::omega_l:
      return std::make_unique<omega_l>(std::move(ctx));
    case algorithm::omega_lc_noforward:
      return std::make_unique<omega_lc>(std::move(ctx),
                                        omega_lc::options{.forwarding = false});
    case algorithm::omega_l_nophase:
      return std::make_unique<omega_l>(std::move(ctx),
                                       omega_l::options{.phase_guard = false});
  }
  return nullptr;
}

}  // namespace omega::election
