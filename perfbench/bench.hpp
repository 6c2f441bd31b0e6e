// Shared plumbing of the repository benchmark (see run.py for the CLI).
//
// A workload returns one `run_output`: the metrics it measured (by name,
// with unit), the operation counts of the final result line, and any
// correctness violations. End-to-end metrics come from untraced runs only;
// a traced run (`--trace 1`) reruns the same workload with the layer
// instruments on and reports the per-layer metrics instead.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "fd/qos.hpp"
#include "proto/wire.hpp"

namespace omega::harness {
class experiment;
}

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode of the self-test: one set-up, any number of failovers.
  bool quick = false;
  /// Failover samples a run must collect; the p90 needs ten beyond it.
  std::size_t min_failovers = 100;
  /// Where the traced run writes its span file ("" = nowhere).
  std::string span_path;
};

struct metric {
  double value = 0.0;
  std::string unit;
};

struct run_output {
  std::map<std::string, metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = metric{value, unit};
  }
  void violation(std::string what) { violations.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const { return violations.empty(); }
};

run_output run_hier300_churn(const options& opt);
run_output run_flat12_lossy_adaptive(const options& opt);
run_output run_live128(const options& opt);

/// Checks of the benchmark itself against deliberately broken inputs;
/// returns the number of checks that did not fire.
int self_test();

// ---- measurement helpers -----------------------------------------------------

using clock = std::chrono::steady_clock;

inline double since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Process CPU time (user + system), seconds.
inline double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set size of the process so far, MB.
inline double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       std::max(0.0, q * static_cast<double>(v.size()) - 1e-9)));
  return v[rank];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The reporting rule of the re-election percentiles: a run fails unless
/// it collected `min_samples` failovers, so at least ten lie beyond the p90.
void require_failovers(run_output& out, std::size_t samples, std::size_t min_samples);

/// Records the re-election latencies and applies `require_failovers`.
void report_reelection(run_output& out, const std::vector<double>& samples,
                       std::size_t min_samples);

/// Every wire kind, in envelope order (the `<kind>` of per-layer names).
inline constexpr omega::proto::msg_kind all_kinds[] = {
    omega::proto::msg_kind::alive,     omega::proto::msg_kind::accuse,
    omega::proto::msg_kind::hello,     omega::proto::msg_kind::hello_ack,
    omega::proto::msg_kind::leave,     omega::proto::msg_kind::rate_request};
inline constexpr std::size_t kind_count = std::size(all_kinds);

inline std::size_t kind_index(omega::proto::msg_kind k) {
  return static_cast<std::size_t>(k) - 1;
}

// ---- traced-run instruments ----------------------------------------------------

/// One recorded span. Spans of one failover episode share `episode`.
struct span {
  std::string name;
  double start_s = 0.0;  // wall: since the span log was created; sim: virtual
  double end_s = 0.0;
  std::uint64_t episode = 0;
  std::uint64_t parent = 0;  // index + 1 of the parent span, 0 = root
  bool sim_time = false;     // virtual-time span (failover phases)
};

/// In-memory span log, written out (JSON lines) once when the run ends.
/// Simulator steps are aggregated into one span per second of virtual
/// time, so the log stays bounded however long the run is.
class span_log {
 public:
  span_log() : t0_(clock::now()) {}
  /// Wall seconds since creation (safe from any thread).
  [[nodiscard]] double now() const { return since(t0_); }
  std::uint64_t add(std::string name, double start_s, double end_s,
                    std::uint64_t episode = 0, std::uint64_t parent = 0,
                    bool sim_time = false) {
    spans_.push_back(span{std::move(name), start_s, end_s, episode, parent, sim_time});
    return spans_.size();
  }
  void write(const std::string& path) const;

 private:
  clock::time_point t0_;
  std::vector<span> spans_;
};

/// Bounded sample of wire frames per kind plus exact per-kind send counts —
/// the traced run's view of the `proto` layer. Frames are copied at send
/// time and only decoded after the measured phase.
class frame_sampler {
 public:
  explicit frame_sampler(std::size_t per_kind = 256, std::size_t stride = 7)
      : per_kind_(per_kind), stride_(stride) {}
  void on_frame(std::span<const std::byte> bytes);
  /// Adds another sampler's counts and (up to the cap) its frames.
  void absorb(const frame_sampler& other);
  [[nodiscard]] std::uint64_t sent(omega::proto::msg_kind k) const {
    return sent_[kind_index(k)];
  }
  [[nodiscard]] std::uint64_t bytes(omega::proto::msg_kind k) const {
    return bytes_[kind_index(k)];
  }
  [[nodiscard]] const std::vector<std::vector<std::byte>>& frames(
      omega::proto::msg_kind k) const {
    return frames_[kind_index(k)];
  }

 private:
  std::size_t per_kind_;
  std::size_t stride_;
  std::uint64_t sent_[kind_count] = {};
  std::uint64_t bytes_[kind_count] = {};
  std::vector<std::vector<std::byte>> frames_[kind_count];
};

/// Pure replays of the `proto` and `membership` layers over sampled frames,
/// run after the measured phase (they touch no protocol object). Sets
/// proto.decode_ns/encode_ns/bytes.<kind>, membership.upsert_ns and
/// membership.ack_entries_mean.
void replay_proto_and_membership(run_output& out, const frame_sampler& frames,
                                 span_log& spans);

/// One (qos, link estimate) input of the FD periodic re-solve.
struct resolve_input {
  omega::fd::qos_spec qos;
  omega::fd::link_estimate link;
};

/// Times `fd::configure` over one tick's worth of inputs and sets the
/// fd.resolve_* metrics (`ticks` re-solve passes over a `wall_s` phase).
void replay_fd_resolve(run_output& out, const std::vector<resolve_input>& inputs,
                       double ticks, double wall_s, span_log& spans);

/// One leader probe of one group: every live member is asked `leader()`.
/// A probe answer fails when it is empty, names a dead process, or differs
/// from the group's agreed leader (the plurality answer naming a live
/// process) — the leader_unavailable_frac rule.
struct leader_poll {
  std::optional<omega::process_id> agreed;
  bool unanimous = false;  // every live member answers `agreed`
  std::uint64_t answers = 0;
  std::uint64_t ok = 0;
  std::size_t self_claims = 0;  // live members answering themselves
};

/// Folds one member's answer into a poll under construction.
class poll_tally {
 public:
  void add(omega::process_id self, const std::optional<omega::process_id>& answer,
           bool answer_alive);
  [[nodiscard]] leader_poll finish() const;

 private:
  leader_poll r_;
  std::vector<std::pair<omega::process_id, std::uint64_t>> tally_;
};

/// Polls one simulated group's live members.
leader_poll poll_sim_group(omega::harness::experiment& exp, omega::group_id group,
                           const std::vector<omega::node_id>& members);

/// Two live members claiming leadership of one group is normal while a
/// failover converges; it is a safety violation once it persists beyond
/// the stabilization bound.
struct dual_leader_watch {
  double since_s = -1.0;  // first probe time the dual claim was seen, -1 = none
  bool reported = false;
  /// Returns true exactly once, when the violation is first established.
  bool observe(std::size_t self_claims, double now_s, double bound_s) {
    if (self_claims < 2) {
      since_s = -1.0;
      return false;
    }
    if (since_s < 0) since_s = now_s;
    if (reported || now_s - since_s <= bound_s) return false;
    reported = true;
    return true;
  }
};

}  // namespace perfbench
