// perfbench: the repository benchmark program (built and run by run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   perfbench --self-test
//
// --quick (self-test smoke runs only): one set-up and any number of
// failovers.
//
// Prints human-readable lines, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding exactly the metrics the run measured (run.py checks them against
// BENCHMARK.json), and exits non-zero when a correctness check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string r = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') r += '\\';
    r += c;
  }
  return r + "\"";
}

void print_result(const run_output& out) {
  for (const auto& n : out.notes) std::cout << "# " << n << "\n";
  for (const auto& v : out.violations) std::cout << "# VIOLATION " << v << "\n";
  for (const auto& [name, m] : out.metrics) {
    std::cout << "# " << name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    if (!first) line += ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload <hier300_churn|flat12_lossy_adaptive|live128>"
               " --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n"
               "       perfbench --self-test\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  options opt;
  bool self = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_value) {
      opt.span_path = argv[++i];
    } else if (a == "--quick") {
      opt.quick = true;
    } else {
      return usage();
    }
  }
  if (self) return self_test() == 0 ? 0 : 1;
  if (!have_workload || !(opt.seconds > 0)) return usage();
  if (opt.quick) opt.min_failovers = 1;

  run_output out;
  if (opt.workload == "hier300_churn") {
    out = run_hier300_churn(opt);
  } else if (opt.workload == "flat12_lossy_adaptive") {
    out = run_flat12_lossy_adaptive(opt);
  } else if (opt.workload == "live128") {
    out = run_live128(opt);
  } else {
    return usage();
  }
  if (out.attempted == 0) out.violation("no operation was attempted");
  print_result(out);
  return out.correct() ? 0 : 1;
}
