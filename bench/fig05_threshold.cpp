// Figure 5: the threshold algorithm for a range of thresholds at (a) k = 2
// and (b) k = 10, vs. the LI algorithms. Expected shape: the threshold value
// acts like the k knob of the k-subset family — low thresholds are
// aggressive (good fresh, bad stale), high thresholds conservative — and the
// LI algorithms dominate every fixed threshold across the T sweep.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

void run_panel(const stale::driver::Cli& cli, int k) {
  stale::driver::ExperimentConfig base;
  base.num_servers = 10;
  base.lambda = 0.9;
  base.model = stale::driver::UpdateModel::kPeriodic;
  cli.apply_run_scale(base);

  std::vector<std::string> policies;
  const std::vector<int> thresholds =
      cli.has("fast") ? std::vector<int>{0, 8, 40}
                      : std::vector<int>{0, 1, 4, 8, 16, 24, 32, 40};
  for (int threshold : thresholds) {
    policies.push_back("threshold:" + std::to_string(k) + ":" +
                       std::to_string(threshold));
  }
  policies.push_back("k_subset:" + std::to_string(k));
  policies.push_back("basic_li");
  policies.push_back("aggressive_li");

  std::cout << "\n## panel: k = " << k << "\n";
  stale::driver::SweepOptions options;
  options.csv = cli.csv();
  stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 64.0), policies,
                             std::cout, options);
}

}  // namespace

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::bench::print_header(
            "Figure 5",
            "threshold algorithm vs. thresholds, periodic update", cli,
            "n = 10, lambda = 0.9; panels k = 2 and k = 10");
        run_panel(cli, 2);
        run_panel(cli, 10);
      });
}
