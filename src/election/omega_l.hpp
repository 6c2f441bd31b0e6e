// S3 / Omega_l: communication-efficient stable leader election
// (paper §6.4; algorithm of Aguilera, Delporte-Gallet, Fauconnier,
// Toueg [2]).
//
// Same (accusation time, pid) ranking as Omega_lc, but a process only
// counts contenders it hears *directly*, and a process that sees a better
// contender voluntarily withdraws from the competition by simply ceasing
// to send ALIVEs. Eventually only the leader transmits — O(n) messages per
// heartbeat interval instead of O(n^2) (Figure 6).
//
// Voluntary silence looks exactly like a crash to everyone else's failure
// detector, so withdrawn processes get accused. The algorithm's phase
// mechanism keeps such accusations from raising the accusation time (the
// stability mechanism described in §6.4): ALIVEs carry the sender's
// competition phase; an accusation referencing phase k only counts if the
// target is still competing in phase k. Each re-entry into the competition
// starts a new phase, so accusations triggered by the old silence are
// stale and ignored.
//
// The trade-off: there is no forwarding stage, so a crashed link between
// the leader and a follower cannot be masked — the follower starts its own
// competition and the group diverges until the link heals. This is why S3
// degrades under link crashes while S2 does not (Figure 7).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "election/elector.hpp"

namespace omega::election {

class omega_l final : public elector {
 public:
  struct options {
    /// The phase guard on accusations. Disabling it (ablation) makes
    /// accusations earned by *voluntary* silence count, so every withdrawal
    /// permanently worsens the withdrawn process's rank — the instability
    /// the mechanism exists to prevent.
    bool phase_guard = true;
  };

  explicit omega_l(elector_context ctx) : omega_l(std::move(ctx), {}) {}
  omega_l(elector_context ctx, options opts);

  void on_alive_payload(node_id from, incarnation inc,
                        const proto::group_payload& payload) override;
  void on_fd_transition(node_id node, bool trusted) override;
  void on_accuse(const proto::accuse_msg& msg) override;
  void on_member_removed(const membership::member_info& member) override;

  [[nodiscard]] std::optional<process_id> evaluate() override;
  [[nodiscard]] bool should_send_alive() const override {
    return ctx_.candidate && competing_;
  }
  void fill_payload(proto::group_payload& payload) override;
  [[nodiscard]] std::string_view name() const override {
    return opts_.phase_guard ? "omega_l" : "omega_l_nophase";
  }
  [[nodiscard]] time_point self_accusation_time() const override { return self_acc_; }
  void set_candidate(bool candidate) override;

  [[nodiscard]] bool competing() const { return competing_; }
  [[nodiscard]] std::uint32_t phase() const { return phase_; }

 private:
  struct contender_state {
    process_id pid;
    node_id node;
    incarnation inc = 0;
    bool candidate = false;
    time_point acc_time{};
    std::uint32_t phase = 0;
  };

  struct rank {
    time_point acc;
    process_id pid;
    friend bool operator<(const rank& a, const rank& b) {
      if (a.acc != b.acc) return a.acc < b.acc;
      return a.pid < b.pid;
    }
  };

  void note_competition(bool entered);
  /// `pid`'s lower bound in contenders_.
  [[nodiscard]] std::vector<contender_state>::iterator find_contender(process_id pid);

  options opts_;
  time_point self_acc_{};
  std::uint32_t phase_ = 0;
  bool competing_ = false;
  std::vector<contender_state> contenders_;  // sorted by pid
  /// Newest suspicion timestamp processed per accuser — the dedup that
  /// makes on_accuse idempotent under message duplication (ISSUE 10).
  std::unordered_map<node_id, time_point> accuse_processed_;

  /// Evaluation memo, same contract as omega_lc's: every input (contenders,
  /// candidacy, self accusation time, the contenders' trust verdicts,
  /// roster) changes only through an observable event, each of which sets
  /// memo_dirty_ (roster changes bump members_version instead). When
  /// nothing changed, the result — and therefore the competing_/phase_
  /// transition logic, which is a pure function of that result — cannot
  /// change either, so the cached pid is returned without touching the
  /// roster or the FD.
  bool memo_dirty_ = true;
  std::optional<process_id> memo_result_;
  std::uint64_t memo_members_version_ = 0;
};

}  // namespace omega::election
