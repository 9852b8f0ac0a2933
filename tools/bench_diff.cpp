// Diffs a google-benchmark JSON run against the committed baseline
// (BENCH_microbench.json at the repo root).
//
// Usage: bench_diff BASELINE.json CURRENT.json [--max-regress PCT]
//        [--report-only]
//
// Fails (exit 1) when a baseline benchmark is missing from the current run —
// a silently dropped microbenchmark is how a perf trajectory dies — and when
// a shared benchmark's median real_time regresses more than --max-regress
// percent (default 10). Runs with --benchmark_repetitions are folded to the
// per-name median first, so one noisy repetition can't trip the gate.
// --report-only prints the same table but always exits clean, for eyeballing
// a local run against the committed trajectory on different hardware.
// --help prints every flag.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_diff_lib.h"
#include "sim/spec.h"

namespace {

const stale::sim::FlagTable kFlags = {
    "bench_diff",
    "Diffs a google-benchmark JSON run against a baseline; exit 1 on a "
    "missing benchmark or a regression.",
    {
        {"max-regress", "PCT", "fail above this median slowdown (default 10)"},
        {"report-only", "", "print the table but always exit 0"},
    },
    {
        {"BASELINE.json", "", "committed baseline run"},
        {"CURRENT.json", "", "run to check"},
    },
};

int run(const stale::sim::FlagParser& flags) {
  stale::benchdiff::DiffOptions options;
  options.max_regress_pct =
      flags.number("max-regress", options.max_regress_pct);
  options.report_only = flags.has("report-only");
  const std::string& baseline_path = flags.positionals()[0];
  const std::string& current_path = flags.positionals()[1];

  std::ifstream baseline_in(baseline_path);
  if (!baseline_in) {
    throw std::runtime_error("cannot read " + baseline_path);
  }
  std::ifstream current_in(current_path);
  if (!current_in) {
    throw std::runtime_error("cannot read " + current_path);
  }
  const auto baseline = stale::benchdiff::load_benchmarks(baseline_in);
  const auto current = stale::benchdiff::load_benchmarks(current_in);
  if (baseline.empty()) {
    throw std::runtime_error("no benchmarks in baseline " + baseline_path);
  }

  const stale::benchdiff::DiffResult result =
      stale::benchdiff::diff_benchmarks(baseline, current, options, std::cout);
  return result.failed(options) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return stale::sim::run_tool(argc, argv, kFlags, run, /*error_exit=*/2);
}
