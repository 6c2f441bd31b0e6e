// Membership view of one group at one service instance (paper §4, "Group
// Maintenance" module).
//
// Tracks the set of processes currently believed to be in the group: who
// hosts them, their incarnation, whether they are leadership candidates and
// when we last heard membership evidence about them (HELLO or ALIVE).
// Entries from older incarnations are replaced; long-silent entries are
// evicted by the group-maintenance sweep once the failure detector no
// longer vouches for them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace omega::membership {

struct member_info {
  process_id pid;
  node_id node;
  incarnation inc = 0;
  bool candidate = false;
  time_point last_refresh{};

  friend bool operator==(const member_info&, const member_info&) = default;
};

/// Result of an upsert, so callers know which notifications to emit.
enum class upsert_result {
  unchanged,      // already knew this (refreshed the timestamp only)
  joined,         // brand-new member
  reincarnated,   // same pid, higher incarnation (process recovered)
  updated,        // candidate flag or hosting node changed
  stale_ignored,  // evidence from an older incarnation; dropped
};

/// The members, stored as one vector sorted by pid: lookups are a binary
/// search, and the election hot path reads the roster in place.
class member_table {
 public:
  /// Inserts or refreshes a member; see `upsert_result` for the outcome.
  /// If `prior` is non-null, it receives the entry as it was before the
  /// call (unchanged when the result is `joined`).
  ///
  /// `cursor`, if non-null, is a position hint for applying an ascending
  /// run of pids: on entry, where the caller expects `pid` to sit (its
  /// lower bound); on return, the position just past `pid`'s row, which is
  /// the next larger pid's lower bound when the table holds both. The hint
  /// is checked against its neighbours and a wrong one (the table changed
  /// in between, or the run is not ascending) falls back to a binary
  /// search, so any value is safe.
  upsert_result upsert(process_id pid, node_id node, incarnation inc,
                       bool candidate, time_point now,
                       member_info* prior = nullptr,
                       std::size_t* cursor = nullptr);

  /// Removes a member if the evidence is not stale (incarnation >= stored).
  /// Returns the removed entry, if any.
  std::optional<member_info> remove(process_id pid, incarnation inc);

  /// Removes members whose last refresh is older than `cutoff` and for whom
  /// `still_vouched(member)` is false. Returns the evicted entries in pid
  /// order.
  std::vector<member_info> evict_stale(
      time_point cutoff, const std::function<bool(const member_info&)>& still_vouched);

  [[nodiscard]] const member_info* find(process_id pid) const;

  /// The members sorted by pid. The reference is to the table's own
  /// storage, so it is invalidated by any non-const member call.
  [[nodiscard]] const std::vector<member_info>& members_view() const {
    return members_;
  }

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }

  /// Monotonic counter bumped by every change to membership *content* —
  /// joins, leaves, evictions, reincarnations, candidate/host updates —
  /// but not by pure last_refresh timestamps. Electors use it to detect
  /// roster changes between evaluations without rescanning the roster.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  /// `pid`'s lower bound in members_, using `hint` when it checks out.
  [[nodiscard]] std::size_t position(process_id pid, std::size_t hint) const;

  std::vector<member_info> members_;  // sorted by pid
  std::uint64_t version_ = 0;

  /// Lower bound on every member's last_refresh, so the periodic eviction
  /// sweep can prove "nobody is stale" without scanning. Refreshes only
  /// raise timestamps (time is monotone) and removals only raise the true
  /// minimum, so the bound stays valid between full scans; inserts fold
  /// their timestamp in. evict_stale recomputes it exactly when it does
  /// scan. A conservative (low) bound only costs an unnecessary scan.
  time_point min_refresh_bound_{};
  bool min_bound_valid_ = false;
};

}  // namespace omega::membership
