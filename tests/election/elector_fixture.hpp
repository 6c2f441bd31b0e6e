// Shared fixture for elector unit tests: a hand-cranked elector_context
// with a controllable clock, membership list (kept sorted by pid, as
// elector_context::members promises), trust oracle, and a capture of
// outgoing ACCUSE messages.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "election/elector.hpp"

namespace omega::election::testing {

class manual_clock final : public clock_source {
 public:
  [[nodiscard]] time_point now() const override { return now_; }
  void advance(duration d) { now_ += d; }
  void set(time_point t) { now_ = t; }

 private:
  time_point now_ = time_origin;
};

struct sent_accusation {
  proto::accuse_msg msg;
  node_id dst;
};

/// Builds contexts and keeps the mutable "world" the elector observes.
class elector_world {
 public:
  manual_clock clock;
  /// Sorted by pid; mutate through add/remove_member or set_candidate so
  /// the order holds and `version` counts every content change.
  std::vector<membership::member_info> members;
  std::uint64_t version = 0;
  std::unordered_set<node_id> trusted;
  std::vector<sent_accusation> accusations;

  elector_context context(process_id self, bool candidate,
                          incarnation inc = 1) {
    elector_context ctx;
    ctx.self_node = node_id{self.value()};
    ctx.self_pid = self;
    ctx.self_inc = inc;
    ctx.group = group_id{1};
    ctx.candidate = candidate;
    ctx.clock = &clock;
    ctx.is_trusted = [this](node_id n) { return trusted.count(n) > 0; };
    ctx.members = [this]() -> const std::vector<membership::member_info>& {
      return members;
    };
    ctx.send_accuse = [this](const proto::accuse_msg& m, node_id dst) {
      accusations.push_back({m, dst});
    };
    return ctx;
  }

  /// Like context(), with `members_version` wired to `version`, so the
  /// elector memoizes its evaluations as it does inside a service.
  elector_context memoized_context(process_id self, bool candidate,
                                   incarnation inc = 1) {
    elector_context ctx = context(self, candidate, inc);
    ctx.members_version = [this] { return version; };
    return ctx;
  }

  /// Adds a member hosted on the node with the same numeric id, at its
  /// sorted position.
  membership::member_info& add_member(process_id pid, bool candidate = true,
                                      incarnation inc = 1) {
    ++version;
    trusted.insert(node_id{pid.value()});
    return *members.insert(position(pid),
                           {pid, node_id{pid.value()}, inc, candidate, clock.now()});
  }

  void remove_member(process_id pid) {
    ++version;
    std::erase_if(members,
                  [&](const membership::member_info& m) { return m.pid == pid; });
  }

  void set_candidate(process_id pid, bool candidate) {
    ++version;
    auto it = position(pid);
    if (it != members.end() && it->pid == pid) it->candidate = candidate;
  }

  void distrust(process_id pid) { trusted.erase(node_id{pid.value()}); }
  void trust(process_id pid) { trusted.insert(node_id{pid.value()}); }

 private:
  std::vector<membership::member_info>::iterator position(process_id pid) {
    return std::lower_bound(
        members.begin(), members.end(), pid,
        [](const membership::member_info& m, process_id p) { return m.pid < p; });
  }
};

/// Convenience: an ALIVE payload as a peer running the same algorithm would
/// fill it in.
inline proto::group_payload payload_from(process_id pid, time_point acc,
                                         bool candidate = true,
                                         bool competing = true,
                                         std::uint32_t phase = 1) {
  proto::group_payload p;
  p.group = group_id{1};
  p.pid = pid;
  p.candidate = candidate;
  p.competing = competing;
  p.accusation_time = acc;
  p.phase = phase;
  p.local_leader = process_id::invalid();
  p.local_leader_acc = time_point{};
  return p;
}

}  // namespace omega::election::testing
