// Determinism guard for the simulator hot path (ISSUE 7 satellite).
//
// The zero-copy rewrite (shared payload buffers, slab-allocated events,
// lazy link-crash draws) must not change protocol behaviour: for a fixed
// seed, the merged trace of a 120-node scoped3 run — event order, leader
// changes, everything — must stay byte-for-byte identical to what the
// pre-rewrite simulator produced. The serialized JSONL trace is fingerprinted
// with FNV-1a against a golden constant captured from the seed semantics;
// the same run executed twice must also agree with itself exactly.
//
// If a PR changes this hash *intentionally* (a real protocol change), rerun
// the test, paste the new values from the failure message, and say so in the
// commit — the point of the guard is that such drift is loud, never silent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/experiment.hpp"
#include "obs/exposition.hpp"

namespace omega::harness {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// The fig12 120-node scoped3 shape (regions of 10 -> zones -> global),
/// shrunk to a test-sized window: settle, one global-leader failover,
/// recovery. Everything that exercises the hot path — ALIVE fan-out over
/// rosters, scoped HELLOs, FD suspicion, hierarchical re-election.
scenario golden_scenario() {
  scenario sc;
  sc.name = "golden-scoped3-120";
  sc.nodes = 120;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.hierarchy = hierarchy_profile::three_tier(12, 2);
  sc.hierarchy.scoped_hello = true;
  sc.trace = true;
  sc.warmup = sec(30);
  sc.seed = 42ull * 1000003ull + 120ull;  // fig12's 120-node stream
  return sc;
}

/// Runs the scenario deterministically: settle, crash the agreed global
/// leader, wait for a successor, recover, settle again. Returns the full
/// merged multi-node trace serialized as JSONL. With `causal` the sinks
/// chain causes and the wire carries stamps — same event stream, each
/// line gaining its "cause" field.
std::string run_golden_trace(bool causal = false) {
  scenario sc = golden_scenario();
  sc.causal = causal;
  experiment exp(sc);
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(40));

  std::optional<process_id> leader = exp.group().agreed_leader();
  const time_point settle_deadline = sim.now() + sec(30);
  while (!leader.has_value() && sim.now() < settle_deadline) {
    sim.run_until(sim.now() + msec(100));
    leader = exp.group().agreed_leader();
  }
  EXPECT_TRUE(leader.has_value());
  if (leader.has_value()) {
    const node_id victim{leader->value()};  // harness runs pid i on node i
    exp.crash_node(victim);
    const time_point crash_at = sim.now();
    while (sim.now() < crash_at + sec(15)) {
      sim.run_until(sim.now() + msec(25));
      const auto agreed = exp.group().agreed_leader();
      if (agreed.has_value() && *agreed != *leader) break;
    }
    exp.recover_node(victim);
    sim.run_until(sim.now() + sec(10));
  }
  return obs::render_jsonl(exp.merged_trace());
}

// Golden fingerprint of the run above, captured from the pre-rewrite
// (seed-semantics) simulator. OMEGA_GOLDEN_* below were produced by the
// heap-of-std::function simulator with per-destination payload copies; the
// zero-copy hot path must reproduce them exactly. Re-pinned once (byte
// count unchanged) when member_table::evict_stale switched from hash-map
// bucket order to pid order: eviction events reorder, nothing else does.
constexpr std::uint64_t kGoldenTraceHash = 0x64201ea23a6dd1e1ull;
constexpr std::size_t kGoldenTraceBytes = 7913082;

TEST(GoldenTrace, Scoped3RunMatchesSeedSemantics) {
  const std::string jsonl = run_golden_trace();
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(fnv1a(jsonl), kGoldenTraceHash)
      << "merged-trace fingerprint drifted from the seed semantics\n"
      << "  bytes: " << jsonl.size() << " (golden " << kGoldenTraceBytes
      << ")\n  hash: 0x" << std::hex << fnv1a(jsonl)
      << " (golden 0x" << kGoldenTraceHash << ")\n"
      << "First lines:\n" << jsonl.substr(0, 400);
  EXPECT_EQ(jsonl.size(), kGoldenTraceBytes);
}

TEST(GoldenTrace, TwoRunsAreByteIdentical) {
  const std::string first = run_golden_trace();
  const std::string second = run_golden_trace();
  EXPECT_EQ(first, second);
}

// Second fingerprint: the same run with causal stamping on. Stamping must
// not perturb the event timeline (stamps ride existing datagrams; the sim's
// link delays are size-independent), so the JSONL differs from the golden
// stream only by the added "cause" fields — pinned separately.
constexpr std::uint64_t kGoldenStampedHash = 0xe79859ab8082a97cull;
constexpr std::size_t kGoldenStampedBytes = 9384167;

TEST(GoldenTrace, StampedRunHasItsOwnPinnedFingerprint) {
  const std::string jsonl = run_golden_trace(/*causal=*/true);
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(fnv1a(jsonl), kGoldenStampedHash)
      << "stamped-trace fingerprint drifted\n"
      << "  bytes: " << jsonl.size() << " (golden " << kGoldenStampedBytes
      << ")\n  hash: 0x" << std::hex << fnv1a(jsonl) << " (golden 0x"
      << kGoldenStampedHash << ")\nFirst lines:\n"
      << jsonl.substr(0, 400);
  EXPECT_EQ(jsonl.size(), kGoldenStampedBytes);
  EXPECT_GT(jsonl.size(), kGoldenTraceBytes)
      << "stamping on must add cause fields";
}

}  // namespace
}  // namespace omega::harness
