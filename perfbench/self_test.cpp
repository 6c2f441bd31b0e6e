// Checks that the benchmark's correctness gates fire on deliberately broken
// inputs (run by `run.py --self-test`).
#include <iostream>

#include "bench.hpp"
#include "harness/experiment.hpp"

namespace perfbench {

namespace {

int check(bool ok, const char* what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int self_test() {
  using namespace omega;
  int failures = 0;

  // p90 rule: zero failovers, or fewer than ten beyond the p90, fail the run.
  {
    run_output none;
    report_reelection(none, {}, 100);
    failures += check(!none.correct(), "zero failovers where p90 is declared fails the run");
    run_output few;
    report_reelection(few, std::vector<double>(50, 1.0), 100);
    failures += check(!few.correct(), "50 failovers fail a run that needs 100");
    run_output enough;
    report_reelection(enough, std::vector<double>(100, 1.0), 100);
    failures += check(enough.correct(), "100 failovers pass");
  }

  // A probe answer naming a dead process: crash the agreed leader of a
  // settled 4-node cluster; every survivor still names it until it
  // detects the crash, and each such answer must count as a failed probe.
  {
    harness::scenario sc;
    sc.nodes = 4;
    sc.churn = harness::churn_profile::none();
    harness::experiment exp(sc);
    std::vector<node_id> members;
    for (std::uint32_t i = 0; i < 4; ++i) members.push_back(node_id{i});
    const group_id group{1};
    exp.simulator().run_until(time_origin + sec(20));
    const leader_poll before = poll_sim_group(exp, group, members);
    failures += check(before.unanimous && before.ok == 4, "settled cluster probes all succeed");
    if (before.agreed) {
      exp.crash_node(node_id{before.agreed->value()});
      const leader_poll after = poll_sim_group(exp, group, members);
      failures += check(after.answers == 3 && after.ok == 0 && !after.agreed,
                        "answers naming a dead leader count as failed probes");
    }
  }

  // Two live self-declared leaders: tolerated while transient, a violation
  // (reported once) when it outlasts the stabilization bound.
  {
    dual_leader_watch w;
    bool fired = false;
    for (int t = 0; t <= 5; ++t) fired |= w.observe(2, t, 10.0);
    fired |= w.observe(1, 6, 10.0);
    failures += check(!fired, "a transient dual claim is tolerated");
    int count = 0;
    for (int t = 7; t <= 30; ++t) count += w.observe(2, t, 10.0) ? 1 : 0;
    failures += check(count == 1, "a persistent dual claim is one violation");
  }

  // A poll with a split view: the plurality live answer is the agreed one.
  {
    poll_tally b;
    b.add(process_id{1}, process_id{1}, true);
    b.add(process_id{2}, process_id{1}, true);
    b.add(process_id{3}, process_id{3}, true);
    b.add(process_id{4}, std::nullopt, false);
    const leader_poll p = b.finish();
    failures += check(p.agreed == process_id{1} && p.ok == 2 && !p.unanimous &&
                          p.self_claims == 2,
                      "split answers: plurality agreed, the rest fail");
  }
  return failures;
}

}  // namespace perfbench
