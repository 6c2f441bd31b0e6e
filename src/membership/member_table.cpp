#include "membership/member_table.hpp"

#include <algorithm>

namespace omega::membership {

namespace {
bool pid_less(const member_info& m, process_id pid) { return m.pid < pid; }
}  // namespace

std::size_t member_table::position(process_id pid, std::size_t hint) const {
  // The hint is `pid`'s lower bound iff its left neighbour is smaller and
  // the row at it is not.
  if (hint <= members_.size() && (hint == 0 || members_[hint - 1].pid < pid) &&
      (hint == members_.size() || !(members_[hint].pid < pid))) {
    return hint;
  }
  return static_cast<std::size_t>(
      std::lower_bound(members_.begin(), members_.end(), pid, pid_less) -
      members_.begin());
}

upsert_result member_table::upsert(process_id pid, node_id node, incarnation inc,
                                   bool candidate, time_point now,
                                   member_info* prior, std::size_t* cursor) {
  const std::size_t at = position(pid, cursor != nullptr ? *cursor : 0);
  if (cursor != nullptr) *cursor = at + 1;
  if (at == members_.size() || members_[at].pid != pid) {
    members_.insert(members_.begin() + static_cast<std::ptrdiff_t>(at),
                    member_info{pid, node, inc, candidate, now});
    if (min_bound_valid_) min_refresh_bound_ = std::min(min_refresh_bound_, now);
    ++version_;
    return upsert_result::joined;
  }
  member_info& m = members_[at];
  if (prior != nullptr) *prior = m;
  if (inc < m.inc) return upsert_result::stale_ignored;
  if (inc > m.inc) {
    m = member_info{pid, node, inc, candidate, now};
    ++version_;
    return upsert_result::reincarnated;
  }
  m.last_refresh = std::max(m.last_refresh, now);
  if (m.candidate != candidate || m.node != node) {
    m.candidate = candidate;
    m.node = node;
    ++version_;
    return upsert_result::updated;
  }
  return upsert_result::unchanged;
}

std::optional<member_info> member_table::remove(process_id pid, incarnation inc) {
  auto it = std::lower_bound(members_.begin(), members_.end(), pid, pid_less);
  if (it == members_.end() || it->pid != pid) return std::nullopt;
  if (inc < it->inc) return std::nullopt;  // stale LEAVE: ignore
  member_info removed = *it;
  members_.erase(it);
  ++version_;
  return removed;
}

std::vector<member_info> member_table::evict_stale(
    time_point cutoff, const std::function<bool(const member_info&)>& still_vouched) {
  std::vector<member_info> evicted;
  if (min_bound_valid_ && min_refresh_bound_ >= cutoff) return evicted;
  time_point min_refresh = time_point::max();
  std::erase_if(members_, [&](const member_info& m) {
    if (m.last_refresh < cutoff && !still_vouched(m)) {
      evicted.push_back(m);
      return true;
    }
    min_refresh = std::min(min_refresh, m.last_refresh);
    return false;
  });
  min_refresh_bound_ = min_refresh;
  min_bound_valid_ = true;
  if (!evicted.empty()) ++version_;
  return evicted;
}

const member_info* member_table::find(process_id pid) const {
  auto it = std::lower_bound(members_.begin(), members_.end(), pid, pid_less);
  return it != members_.end() && it->pid == pid ? &*it : nullptr;
}

}  // namespace omega::membership
