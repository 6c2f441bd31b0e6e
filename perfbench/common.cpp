#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "fd/configurator.hpp"
#include "membership/member_table.hpp"

namespace perfbench {

using omega::proto::msg_kind;

void require_failovers(run_output& out, std::size_t samples, std::size_t min_samples) {
  out.notes.push_back("reelection_n " + std::to_string(samples));
  if (samples == 0) {
    out.violation("no failover completed");
  } else if (samples < min_samples) {
    out.violation("only " + std::to_string(samples) +
                  " failovers; the p90 needs at least " + std::to_string(min_samples));
  }
}

void report_reelection(run_output& out, const std::vector<double>& samples,
                       std::size_t min_samples) {
  out.set("reelection_p50_s", median(samples), "s");
  out.set("reelection_p90_s", percentile(samples, 0.9), "s");
  require_failovers(out, samples.size(), min_samples);
}

void span_log::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"clock\": \"%s\", "
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"episode\": %llu, "
                  "\"parent\": %llu}\n",
                  i + 1, s.name.c_str(), s.sim_time ? "sim" : "wall", s.start_s,
                  s.end_s, static_cast<unsigned long long>(s.episode),
                  static_cast<unsigned long long>(s.parent));
    f << line;
  }
}

void frame_sampler::on_frame(std::span<const std::byte> bytes) {
  const auto kind = omega::proto::peek_kind(bytes);
  if (!kind) return;
  const std::size_t k = kind_index(*kind);
  const std::uint64_t n = sent_[k]++;
  bytes_[k] += bytes.size();
  if (frames_[k].size() < per_kind_ && n % stride_ == 0) {
    frames_[k].emplace_back(bytes.begin(), bytes.end());
  }
}

void poll_tally::add(omega::process_id self,
                       const std::optional<omega::process_id>& answer,
                       bool answer_alive) {
  ++r_.answers;
  if (answer && *answer == self) ++r_.self_claims;
  if (!answer || !answer_alive) return;
  auto it = std::find_if(tally_.begin(), tally_.end(),
                         [&](const auto& e) { return e.first == *answer; });
  if (it == tally_.end()) {
    tally_.emplace_back(*answer, 1);
  } else {
    ++it->second;
  }
}

leader_poll poll_tally::finish() const {
  leader_poll r = r_;
  if (tally_.empty()) return r;
  const auto best = std::max_element(
      tally_.begin(), tally_.end(), [](const auto& a, const auto& b) {
        return a.second < b.second || (a.second == b.second && b.first < a.first);
      });
  r.agreed = best->first;
  r.ok = best->second;
  r.unanimous = best->second == r.answers;
  return r;
}

void frame_sampler::absorb(const frame_sampler& other) {
  for (std::size_t k = 0; k < kind_count; ++k) {
    sent_[k] += other.sent_[k];
    bytes_[k] += other.bytes_[k];
    for (const auto& f : other.frames_[k]) {
      if (frames_[k].size() >= per_kind_) break;
      frames_[k].push_back(f);
    }
  }
}

namespace {

std::string kind_name(msg_kind k) { return std::string(omega::proto::to_string(k)); }

/// Repetitions so a replay pass times at least ~`target` operations.
std::size_t reps_for(std::size_t items, std::size_t target) {
  return items == 0 ? 0 : std::max<std::size_t>(1, target / items);
}

}  // namespace

void replay_proto_and_membership(run_output& out, const frame_sampler& frames,
                                 span_log& spans) {
  std::uint64_t guard = 0;  // keeps the timed work observable
  for (const msg_kind k : all_kinds) {
    const auto& sample = frames.frames(k);
    const std::string name = kind_name(k);
    const std::uint64_t sent = frames.sent(k);
    out.set("proto.bytes." + name,
            sent ? static_cast<double>(frames.bytes(k)) / static_cast<double>(sent)
                 : 0.0,
            "B");
    std::vector<omega::proto::wire_message> decoded;
    for (const auto& f : sample) {
      if (auto m = omega::proto::decode(f)) decoded.push_back(std::move(*m));
    }
    if (decoded.size() != sample.size()) {
      out.violation("a captured " + name + " frame does not decode");
    }
    if (decoded.empty()) {
      out.set("proto.decode_ns." + name, 0.0, "ns");
      out.set("proto.encode_ns." + name, 0.0, "ns");
      if (k == msg_kind::hello_ack) {
        out.set("membership.ack_entries_mean", 0.0, "count");
        out.set("membership.upsert_ns", 0.0, "ns");
      }
      continue;
    }
    const std::size_t reps = reps_for(sample.size(), 20000);
    const double d0 = spans.now();
    omega::proto::wire_message scratch;
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& f : sample) guard += omega::proto::decode_into(scratch, f);
    }
    const double d1 = spans.now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (const auto& m : decoded) guard += omega::proto::encode(m).size();
    }
    const double d2 = spans.now();
    spans.add("replay.proto.decode." + name, d0, d1);
    spans.add("replay.proto.encode." + name, d1, d2);
    const double ops = static_cast<double>(reps * sample.size());
    out.set("proto.decode_ns." + name, (d1 - d0) * 1e9 / ops, "ns");
    out.set("proto.encode_ns." + name, (d2 - d1) * 1e9 / ops, "ns");

    if (k != msg_kind::hello_ack) continue;
    // Membership: every decoded HELLO_ACK entry upserted into fresh tables,
    // one per group, as a re-joiner receiving the snapshot would.
    std::size_t entries = 0;
    for (const auto& m : decoded) {
      entries += std::get<omega::proto::hello_ack_msg>(m).entries.size();
    }
    out.set("membership.ack_entries_mean",
            static_cast<double>(entries) / static_cast<double>(decoded.size()),
            "count");
    const std::size_t ureps = reps_for(entries, 200000);
    const double u0 = spans.now();
    for (std::size_t r = 0; r < ureps; ++r) {
      for (const auto& m : decoded) {
        std::unordered_map<omega::group_id, omega::membership::member_table> tables;
        for (const auto& e : std::get<omega::proto::hello_ack_msg>(m).entries) {
          tables[e.group].upsert(e.pid, e.node, e.inc, e.candidate,
                                 omega::time_point{});
        }
        guard += tables.size();
      }
    }
    const double u1 = spans.now();
    spans.add("replay.membership.upsert", u0, u1);
    out.set("membership.upsert_ns",
            entries ? (u1 - u0) * 1e9 / static_cast<double>(ureps * entries) : 0.0,
            "ns");
  }
  if (guard == 0) out.notes.push_back("replay guard 0");
}

void replay_fd_resolve(run_output& out, const std::vector<resolve_input>& inputs,
                       double ticks, double wall_s, span_log& spans) {
  const std::size_t reps = reps_for(inputs.size(), 100000);
  double guard = 0.0;
  const double t0 = spans.now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& in : inputs) {
      guard += omega::to_seconds(omega::fd::configure(in.qos, in.link).eta);
    }
  }
  const double t1 = spans.now();
  spans.add("replay.fd.resolve", t0, t1);
  const double calls = static_cast<double>(inputs.size());
  const double ns = calls > 0 ? (t1 - t0) * 1e9 / (calls * static_cast<double>(reps)) : 0.0;
  out.set("fd.resolve_calls_per_tick", calls, "count");
  out.set("fd.resolve_ns_per_call", ns, "ns");
  out.set("fd.resolve_share", wall_s > 0 ? calls * ns * 1e-9 * ticks / wall_s : 0.0,
          "ratio");
  if (guard < 0) out.notes.push_back("resolve guard negative");
}

}  // namespace perfbench
