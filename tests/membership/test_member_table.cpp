#include "membership/member_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.hpp"

namespace omega::membership {
namespace {

TEST(MemberTable, JoinAndFind) {
  member_table t;
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 1, true, time_origin),
            upsert_result::joined);
  const member_info* m = t.find(process_id{1});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->node, node_id{1});
  EXPECT_TRUE(m->candidate);
  EXPECT_EQ(t.size(), 1u);
}

TEST(MemberTable, RefreshIsUnchanged) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(5)),
            upsert_result::unchanged);
  EXPECT_EQ(t.find(process_id{1})->last_refresh, time_origin + sec(5));
}

TEST(MemberTable, RefreshTimestampNeverRegresses) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(10));
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(5));
  EXPECT_EQ(t.find(process_id{1})->last_refresh, time_origin + sec(10));
}

TEST(MemberTable, ReincarnationReplaces) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 2, false, time_origin + sec(1)),
            upsert_result::reincarnated);
  EXPECT_EQ(t.find(process_id{1})->inc, 2u);
  EXPECT_FALSE(t.find(process_id{1})->candidate);
}

TEST(MemberTable, StaleIncarnationIgnored) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 5, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 3, false, time_origin + sec(1)),
            upsert_result::stale_ignored);
  EXPECT_TRUE(t.find(process_id{1})->candidate);
}

TEST(MemberTable, CandidateFlagChangeIsUpdated) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  EXPECT_EQ(t.upsert(process_id{1}, node_id{1}, 1, false, time_origin),
            upsert_result::updated);
}

TEST(MemberTable, RemoveRespectsIncarnation) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 5, true, time_origin);
  EXPECT_FALSE(t.remove(process_id{1}, 4).has_value());  // stale LEAVE
  EXPECT_EQ(t.size(), 1u);
  auto removed = t.remove(process_id{1}, 5);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->pid, process_id{1});
  EXPECT_TRUE(t.empty());
}

TEST(MemberTable, RemoveUnknownIsNoop) {
  member_table t;
  EXPECT_FALSE(t.remove(process_id{9}, 1).has_value());
}

TEST(MemberTable, EvictStaleHonoursVouching) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  t.upsert(process_id{2}, node_id{2}, 1, true, time_origin);
  // Evict anything older than t=10s unless it is pid 2 (vouched).
  const auto evicted =
      t.evict_stale(time_origin + sec(10), [](const member_info& m) {
        return m.pid == process_id{2};
      });
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].pid, process_id{1});
  EXPECT_NE(t.find(process_id{2}), nullptr);
}

TEST(MemberTable, EvictKeepsFreshEntries) {
  member_table t;
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin + sec(20));
  const auto evicted = t.evict_stale(time_origin + sec(10),
                                     [](const member_info&) { return false; });
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(t.size(), 1u);
}

TEST(MemberTable, MembersSortedByPid) {
  member_table t;
  t.upsert(process_id{3}, node_id{3}, 1, true, time_origin);
  t.upsert(process_id{1}, node_id{1}, 1, true, time_origin);
  t.upsert(process_id{2}, node_id{2}, 1, true, time_origin);
  const auto members = t.members_view();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].pid, process_id{1});
  EXPECT_EQ(members[1].pid, process_id{2});
  EXPECT_EQ(members[2].pid, process_id{3});
}

TEST(MemberTable, EvictionReturnsPidOrder) {
  member_table t;
  for (const std::uint32_t pid : {7u, 3u, 9u, 1u, 5u}) {
    t.upsert(process_id{pid}, node_id{pid}, 1, true, time_origin);
  }
  const auto evicted = t.evict_stale(time_origin + sec(10),
                                     [](const member_info&) { return false; });
  ASSERT_EQ(evicted.size(), 5u);
  for (std::size_t i = 1; i < evicted.size(); ++i) {
    EXPECT_LT(evicted[i - 1].pid, evicted[i].pid);
  }
}

TEST(MemberTable, CursorHintNeverChangesTheOutcome) {
  member_table t;
  for (const std::uint32_t pid : {2u, 4u, 6u}) {
    t.upsert(process_id{pid}, node_id{pid}, 1, true, time_origin);
  }
  // A correct hint, a stale one and one past the end all land on pid 4.
  for (const std::size_t hint : {std::size_t{1}, std::size_t{0}, std::size_t{99}}) {
    std::size_t cursor = hint;
    EXPECT_EQ(t.upsert(process_id{4}, node_id{4}, 1, true, time_origin, nullptr,
                       &cursor),
              upsert_result::unchanged);
    EXPECT_EQ(cursor, 2u);  // just past pid 4's row
  }
  // A join at a hinted position keeps the table sorted.
  std::size_t cursor = 2;
  EXPECT_EQ(t.upsert(process_id{5}, node_id{5}, 1, true, time_origin, nullptr,
                     &cursor),
            upsert_result::joined);
  EXPECT_EQ(cursor, 3u);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.members_view()[2].pid, process_id{5});
}

// Model check: the pid-sorted vector against a std::map reference of the
// documented contract, over seeded random upsert/remove/evict sequences,
// with random (often wrong) cursor hints.
class MemberTableModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemberTableModel, MatchesMapReference) {
  rng r{GetParam()};
  member_table t;
  std::map<process_id, member_info> ref;
  std::uint64_t ref_version = 0;
  time_point clock = time_origin;
  std::size_t cursor = 0;
  constexpr std::uint32_t kPids = 40;

  for (int step = 0; step < 4000; ++step) {
    clock += msec(1 + static_cast<std::int64_t>(r.uniform_below(500)));
    const process_id pid{static_cast<std::uint32_t>(r.uniform_below(kPids))};
    const incarnation inc = 1 + r.uniform_below(4);
    switch (r.uniform_below(10)) {
      default: {  // upsert: mostly refreshes, some joins/updates/reincarnations
        const node_id node{static_cast<std::uint32_t>(r.uniform_below(3)) +
                           pid.value() * 4};
        const bool candidate = r.bernoulli(0.7);
        const time_point now =
            clock - msec(static_cast<std::int64_t>(r.uniform_below(2000)));
        upsert_result want = upsert_result::unchanged;
        std::optional<member_info> want_prior;
        auto it = ref.find(pid);
        if (it == ref.end()) {
          ref.emplace(pid, member_info{pid, node, inc, candidate, now});
          want = upsert_result::joined;
          ++ref_version;
        } else {
          want_prior = it->second;
          member_info& m = it->second;
          if (inc < m.inc) {
            want = upsert_result::stale_ignored;
          } else if (inc > m.inc) {
            m = member_info{pid, node, inc, candidate, now};
            want = upsert_result::reincarnated;
            ++ref_version;
          } else {
            m.last_refresh = std::max(m.last_refresh, now);
            if (m.candidate != candidate || m.node != node) {
              m.candidate = candidate;
              m.node = node;
              want = upsert_result::updated;
              ++ref_version;
            }
          }
        }
        // Hint: the previous call's cursor, a random position, or none.
        std::size_t* hint = nullptr;
        switch (r.uniform_below(3)) {
          case 0: hint = &cursor; break;
          case 1:
            cursor = r.uniform_below(t.size() + 3);
            hint = &cursor;
            break;
          default: break;
        }
        member_info prior{};
        ASSERT_EQ(t.upsert(pid, node, inc, candidate, now, &prior, hint), want)
            << "step " << step;
        if (want_prior) {
          ASSERT_EQ(prior, *want_prior) << "step " << step;
        }
        if (hint != nullptr) {
          const auto& rows = t.members_view();
          ASSERT_LT(*hint - 1, rows.size());
          ASSERT_EQ(rows[*hint - 1].pid, pid) << "step " << step;
        }
        break;
      }
      case 7: {  // remove (LEAVE), sometimes stale
        std::optional<member_info> want;
        auto it = ref.find(pid);
        if (it != ref.end() && inc >= it->second.inc) {
          want = it->second;
          ref.erase(it);
          ++ref_version;
        }
        ASSERT_EQ(t.remove(pid, inc), want) << "step " << step;
        break;
      }
      case 8: {  // eviction sweep with a random vouched set
        const time_point cutoff =
            clock - msec(static_cast<std::int64_t>(r.uniform_below(20000)));
        const std::uint64_t salt = r.uniform_below(1000);
        const auto vouched = [salt](const member_info& m) {
          return (m.pid.value() + salt) % 3 == 0;
        };
        std::vector<member_info> want;  // pid order: the contract
        for (auto it = ref.begin(); it != ref.end();) {
          if (it->second.last_refresh < cutoff && !vouched(it->second)) {
            want.push_back(it->second);
            it = ref.erase(it);
          } else {
            ++it;
          }
        }
        if (!want.empty()) ++ref_version;
        ASSERT_EQ(t.evict_stale(cutoff, vouched), want) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(t.version(), ref_version) << "step " << step;
    ASSERT_EQ(t.size(), ref.size());
    const process_id probe{static_cast<std::uint32_t>(r.uniform_below(kPids))};
    const member_info* found = t.find(probe);
    auto it = ref.find(probe);
    ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
    std::vector<member_info> rows;
    for (const auto& [p, m] : ref) rows.push_back(m);
    ASSERT_EQ(t.members_view(), rows) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemberTableModel,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace omega::membership
