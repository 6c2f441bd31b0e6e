// Leader Election Algorithm module interface (paper §4, Figure 2).
//
// One elector instance runs per (service instance, group). The service
// feeds it protocol events (ALIVE payloads, FD trust/suspect transitions,
// ACCUSE messages, membership changes) and, after each batch of events,
// calls `evaluate()` to obtain the current leader choice. Electors are
// pluggable — the paper ships three:
//
//   omega_id (S1): smallest id among alive candidates. Simple but unstable.
//   omega_lc (S2): accusation times + local-leader forwarding [4]. Stable,
//                  tolerates link crashes, O(n^2) messages.
//   omega_l  (S3): accusation times + competition withdrawal [2]. Stable,
//                  communication-efficient (eventually only the leader
//                  sends), O(n) messages, but assumes losses are transient.
//
// The elector never touches the network directly: it calls the injected
// `send_accuse` hook, and tells the service whether this process should
// currently be emitting ALIVE payloads for the group via
// `should_send_alive()`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/executor.hpp"
#include "common/ids.hpp"
#include "membership/member_table.hpp"
#include "obs/sink.hpp"
#include "proto/wire.hpp"

namespace omega::election {

/// Which of the paper's three algorithms a service instance runs. The two
/// `_ablation` variants disable one design mechanism each; they exist for
/// the ablation benchmarks (see DESIGN.md) and should not be deployed.
enum class algorithm {
  omega_id,           // S1
  omega_lc,           // S2
  omega_l,            // S3
  omega_lc_noforward, // S2 without stage-2 local-leader forwarding (ablation)
  omega_l_nophase,    // S3 without the phase guard on accusations (ablation)
};

[[nodiscard]] std::string_view to_string(algorithm alg);

/// How the hosting instance's evaluate() calls were answered: from the
/// evaluation memo, or by a full re-evaluation (`omega_elector_evaluations_total`).
struct evaluation_counts {
  std::uint64_t memo = 0;
  std::uint64_t evaluated = 0;
};

/// Everything an elector needs from its hosting service instance.
struct elector_context {
  node_id self_node;
  process_id self_pid;
  incarnation self_inc = 0;
  group_id group;
  bool candidate = false;
  clock_source* clock = nullptr;
  /// FD verdict for a remote node within this group.
  std::function<bool(node_id)> is_trusted;
  /// Current group membership, sorted by pid. Returns a reference into the
  /// group-maintenance roster cache: valid until the next membership event,
  /// which is always outside an elector call (datagram sends are enqueued,
  /// never delivered synchronously). Electors run evaluate() once per
  /// inbound payload, so this must not copy the roster.
  std::function<const std::vector<membership::member_info>&()> members;
  /// Monotonic roster-content version (member_table::version). Lets an
  /// elector detect membership changes between evaluations without a scan;
  /// leave null to disable evaluation memoization.
  std::function<std::uint64_t()> members_version;
  /// Sends an ACCUSE message to the node hosting the accused process.
  std::function<void(const proto::accuse_msg&, node_id)> send_accuse;
  /// Optional stability score in [0, 1] for a candidate (higher = more
  /// stable), served by the adaptation engine when the join enabled
  /// stability ranking. Null when the feature is off — electors must
  /// behave exactly as the paper specifies in that case.
  std::function<double(process_id)> stability_score;
  /// Observability sink of the hosting instance; electors trace algorithm
  /// state transitions (omega_l competition entry/withdrawal) through it.
  /// Null (default) disables tracing.
  obs::sink* sink = nullptr;
  /// Counters the elector bumps once per evaluate(), shared by every group
  /// of the hosting instance. Null (default) disables counting.
  evaluation_counts* evaluations = nullptr;
};

/// The roster row for `pid`, or null: a binary search of the pid-sorted
/// roster that `elector_context::members` returns.
[[nodiscard]] const membership::member_info* find_member(
    const std::vector<membership::member_info>& members, process_id pid);

class elector {
 public:
  explicit elector(elector_context ctx) : ctx_(std::move(ctx)) {}
  virtual ~elector() = default;

  elector(const elector&) = delete;
  elector& operator=(const elector&) = delete;

  /// One group payload arrived in an ALIVE from `from` (already
  /// incarnation-screened by the failure-detector layer is NOT assumed;
  /// implementations must ignore payloads older than known incarnations).
  virtual void on_alive_payload(node_id from, incarnation inc,
                                const proto::group_payload& payload) = 0;

  /// FD trust/suspect edge for `node` within this group.
  virtual void on_fd_transition(node_id node, bool trusted) = 0;

  /// An ACCUSE message addressed to the local process.
  virtual void on_accuse(const proto::accuse_msg& msg) = 0;

  /// Membership removal (voluntary leave, eviction, or replacement by a
  /// newer incarnation).
  virtual void on_member_removed(const membership::member_info& member) = 0;

  /// Recomputes the leader choice from current state.
  [[nodiscard]] virtual std::optional<process_id> evaluate() = 0;

  /// Whether the local process should currently emit ALIVE payloads for
  /// this group. (S1/S2: iff it participates actively; S3: iff competing.)
  [[nodiscard]] virtual bool should_send_alive() const = 0;

  /// Fills the election fields of an outgoing ALIVE payload.
  virtual void fill_payload(proto::group_payload& payload) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Accusation time of the local process (exposed for tests/metrics).
  [[nodiscard]] virtual time_point self_accusation_time() const { return {}; }

  /// Changes the local process's candidacy in place, preserving all learned
  /// election state (contender tables, current leader view). Becoming a
  /// candidate must rank the process behind any established leader — the
  /// same guarantee a fresh re-join gives (omega_lc/omega_l reset the self
  /// accusation time to "now"; omega_l also opens a fresh competition
  /// phase) — without destroying the group view the way leave + re-join
  /// does. No-op when the flag already matches.
  virtual void set_candidate(bool candidate) { ctx_.candidate = candidate; }
  [[nodiscard]] bool is_candidate() const { return ctx_.candidate; }

 protected:
  elector_context ctx_;
};

/// Factory for the three paper algorithms.
[[nodiscard]] std::unique_ptr<elector> make_elector(algorithm alg,
                                                    elector_context ctx);

}  // namespace omega::election
