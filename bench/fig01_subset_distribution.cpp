// Figure 1: distribution of requests to servers under the k-subset algorithm
// (paper Eq. 1) — fraction of requests reaching the rank-i server for a range
// of k at n = 10. The analytic curve is printed alongside an empirical check
// from the actual KSubsetPolicy implementation.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/ksubset_analysis.h"
#include "driver/table.h"
#include "policy/k_subset_policy.h"
#include "sim/rng.h"

namespace {

using stale::bench::print_header;
using stale::bench::run_bench;
using stale::driver::Table;

// Empirical rank frequencies from the simulated policy over fixed distinct
// loads (rank == index + 1).
std::vector<double> empirical_ranks(int n, int k, int draws,
                                    std::uint64_t seed) {
  stale::policy::KSubsetPolicy policy(k);
  std::vector<int> loads(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) loads[static_cast<std::size_t>(i)] = i;
  stale::policy::DispatchContext context;
  context.loads = loads;
  stale::sim::Rng rng(seed);
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < draws; ++i) {
    ++counts[static_cast<std::size_t>(policy.select(context, rng))];
  }
  std::vector<double> freq(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    freq[i] = static_cast<double>(counts[i]) / draws;
  }
  return freq;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<stale::sim::Flag> flags = {{"n", "N", "cluster size"}};
  return run_bench(argc, argv, flags, [](const stale::driver::Cli& cli) {
    const int n = cli.integer<int>("n", 10);
    const std::vector<int> ks = {1, 2, 3, 5, n};
    print_header("Figure 1",
                 "request share vs. server rank under the k-subset algorithm "
                 "(Eq. 1)",
                 cli, "n = " + std::to_string(n) + ", analytic + empirical");

    std::vector<std::string> columns{"rank"};
    for (int k : ks) columns.push_back("k=" + std::to_string(k));
    for (int k : ks) columns.push_back("k=" + std::to_string(k) + " (sim)");
    Table table(std::move(columns));

    const int draws = cli.has("fast") ? 50'000 : 400'000;
    std::vector<std::vector<double>> analytic;
    std::vector<std::vector<double>> simulated;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      analytic.push_back(
          stale::core::ksubset_rank_probabilities(n, ks[i]));
      simulated.push_back(empirical_ranks(n, ks[i], draws,
                                          0xF161 + static_cast<int>(i)));
    }
    for (int rank = 1; rank <= n; ++rank) {
      std::vector<std::string> row{std::to_string(rank)};
      for (const auto& series : analytic) {
        row.push_back(Table::fmt(series[static_cast<std::size_t>(rank - 1)]));
      }
      for (const auto& series : simulated) {
        row.push_back(Table::fmt(series[static_cast<std::size_t>(rank - 1)]));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout, cli.csv());
  });
}
