#include "election/omega_l.hpp"

#include <algorithm>

namespace omega::election {

omega_l::omega_l(elector_context ctx, options opts)
    : elector(std::move(ctx)), opts_(opts) {
  self_acc_ = ctx_.clock ? ctx_.clock->now() : time_point{};
  if (ctx_.candidate) {
    // A joining candidate competes until it hears someone better; its fresh
    // accusation time guarantees it loses against any established leader.
    competing_ = true;
    phase_ = 1;
  }
}

void omega_l::on_alive_payload(node_id from, incarnation inc,
                               const proto::group_payload& payload) {
  if (payload.pid == ctx_.self_pid) return;
  auto it = find_contender(payload.pid);
  const bool existed = it != contenders_.end() && it->pid == payload.pid;
  if (existed && inc < it->inc) return;  // stale
  if (!payload.competing || !payload.candidate) {
    // A final ALIVE with competing=false is a graceful withdrawal: drop the
    // contender right away instead of waiting for a timeout.
    if (existed) {
      contenders_.erase(it);
      memo_dirty_ = true;
    }
    return;
  }
  if (!existed) it = contenders_.insert(it, contender_state{payload.pid, from});
  contender_state& st = *it;
  const contender_state before = st;
  st.node = from;
  st.inc = inc;
  st.candidate = payload.candidate;
  st.acc_time = std::max(st.acc_time, payload.accusation_time);
  st.phase = payload.phase;
  // The steady-state leader heartbeat repeats the same evidence; only an
  // actual change can affect the next evaluation.
  if (!existed || before.node != st.node || before.inc != st.inc ||
      before.candidate != st.candidate || before.acc_time != st.acc_time ||
      before.phase != st.phase) {
    memo_dirty_ = true;
  }
}

void omega_l::on_fd_transition(node_id node, bool trusted) {
  // evaluate() reads trust only for contenders' nodes, so an edge anywhere
  // else cannot change its result. A timeout on a contender accuses it
  // (tagged with the phase we last saw, so a voluntary withdrawal in the
  // meantime makes the accusation stale) and drops it from the competition.
  const time_point now = ctx_.clock ? ctx_.clock->now() : time_point{};
  for (auto it = contenders_.begin(); it != contenders_.end();) {
    const contender_state& st = *it;
    if (st.node != node) {
      ++it;
      continue;
    }
    memo_dirty_ = true;
    if (trusted) {
      ++it;
      continue;
    }
    if (ctx_.send_accuse) {
      proto::accuse_msg accuse;
      accuse.from = ctx_.self_node;
      accuse.from_inc = ctx_.self_inc;
      accuse.group = ctx_.group;
      accuse.target = st.pid;
      accuse.target_inc = st.inc;
      accuse.phase = st.phase;
      accuse.when = now;
      ctx_.send_accuse(accuse, node);
    }
    it = contenders_.erase(it);
  }
}

void omega_l::on_accuse(const proto::accuse_msg& msg) {
  if (msg.target != ctx_.self_pid || msg.target_inc != ctx_.self_inc) return;
  // The stability mechanism: only a suspicion of our *current* competition
  // phase can demote us. Accusations earned by voluntary silence carry an
  // older phase and are ignored. (The ablation variant counts everything,
  // which punishes voluntary withdrawal — see options::phase_guard.)
  if (opts_.phase_guard && (!competing_ || msg.phase != phase_)) return;
  // Idempotency under at-least-once delivery: a suspicion is identified by
  // (accuser, accuser's suspicion time); replays and reordered older
  // suspicions from the same accuser must not demote us a second time.
  auto [it, first] = accuse_processed_.try_emplace(msg.from, msg.when);
  if (!first) {
    if (msg.when <= it->second) return;
    it->second = msg.when;
  }
  const time_point now = ctx_.clock ? ctx_.clock->now() : time_point{};
  if (now > self_acc_) {
    self_acc_ = now;
    memo_dirty_ = true;
  }
}

void omega_l::on_member_removed(const membership::member_info& member) {
  auto it = find_contender(member.pid);
  if (it != contenders_.end() && it->pid == member.pid && it->inc <= member.inc) {
    contenders_.erase(it);
    memo_dirty_ = true;
  }
}

std::optional<process_id> omega_l::evaluate() {
  // Steady-state short-circuit: see the memo contract in the header. The
  // competing_/phase_ side effects below depend only on `best`, which
  // cannot differ from the memoized run when no input changed.
  const std::uint64_t roster_version =
      ctx_.members_version ? ctx_.members_version() : 0;
  if (!memo_dirty_ && ctx_.members_version &&
      roster_version == memo_members_version_) {
    if (ctx_.evaluations) ++ctx_.evaluations->memo;
    return memo_result_;
  }
  if (ctx_.evaluations) ++ctx_.evaluations->evaluated;

  // Eligibility is a binary search of the pid-sorted roster per contender:
  // O(contenders log n), with nothing to rebuild when the roster changes.
  const auto& members = ctx_.members();
  const auto is_candidate_member = [&](process_id pid, incarnation inc) {
    const membership::member_info* m = find_member(members, pid);
    return m != nullptr && m->candidate && m->inc == inc;
  };

  std::optional<rank> best;
  if (ctx_.candidate) best = rank{self_acc_, ctx_.self_pid};
  for (const contender_state& st : contenders_) {
    const rank r{st.acc_time, st.pid};
    // Ranks are unique (the pid breaks ties), so a contender that does not
    // beat the best so far cannot be the minimum whatever its eligibility:
    // rank first, and probe the roster and the FD only for a would-be best.
    if (best && !(r < *best)) continue;
    if (!is_candidate_member(st.pid, st.inc)) continue;
    if (!ctx_.is_trusted || !ctx_.is_trusted(st.node)) continue;
    best = r;
  }

  const bool now_competing = ctx_.candidate && best && best->pid == ctx_.self_pid;
  if (now_competing && !competing_) {
    competing_ = true;
    ++phase_;  // new competition epoch: accusations from the silence are stale
    note_competition(true);
  } else if (!now_competing && competing_) {
    competing_ = false;
    note_competition(false);
  }

  memo_result_ = best ? std::optional<process_id>(best->pid) : std::nullopt;
  memo_members_version_ = roster_version;
  memo_dirty_ = false;
  return memo_result_;
}

void omega_l::set_candidate(bool candidate) {
  if (ctx_.candidate == candidate) return;
  ctx_.candidate = candidate;
  memo_dirty_ = true;
  if (candidate) {
    // Same entry semantics as a fresh candidate join: compete until we hear
    // someone better, ranked behind every established contender, in a new
    // phase so accusations earned by the listener silence are stale.
    self_acc_ = ctx_.clock ? ctx_.clock->now() : time_point{};
    competing_ = true;
    ++phase_;
    note_competition(true);
  } else {
    const bool was = competing_;
    competing_ = false;  // the service's reevaluate sends the withdrawal
    if (was) note_competition(false);
  }
}

std::vector<omega_l::contender_state>::iterator omega_l::find_contender(
    process_id pid) {
  return std::lower_bound(
      contenders_.begin(), contenders_.end(), pid,
      [](const contender_state& c, process_id p) { return c.pid < p; });
}

void omega_l::note_competition(bool entered) {
  if (!ctx_.sink) return;
  obs::trace_event ev;
  ev.kind = entered ? obs::event_kind::competition_enter
                    : obs::event_kind::competition_withdraw;
  ev.at = ctx_.clock ? ctx_.clock->now() : time_point{};
  ev.group = ctx_.group;
  ev.subject = ctx_.self_pid;
  ev.value = static_cast<double>(phase_);
  ctx_.sink->record(ev);
}

void omega_l::fill_payload(proto::group_payload& payload) {
  payload.group = ctx_.group;
  payload.pid = ctx_.self_pid;
  payload.candidate = ctx_.candidate;
  payload.competing = competing_;
  payload.accusation_time = self_acc_;
  payload.phase = phase_;
  payload.local_leader = process_id::invalid();
  payload.local_leader_acc = time_point{};
}

}  // namespace omega::election
