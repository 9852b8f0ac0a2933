// Figure 10: periodic-update sweeps under the heavy-tailed Bounded Pareto
// job-size workload (alpha = 1.1, max = 1000x mean, mean = 1) at loads
// lambda = 0.5, 0.7, 0.9 — one panel each. Following the paper's
// methodology, cells report the across-trial median with the 25th-75th
// percentile box and min..max whiskers (trial counts: >= 30 with --paper).
// Expected shape: LI stays good everywhere; absolute times and the
// random-vs-best gaps are much larger than with exponential jobs.
#include <iostream>

#include "bench_common.h"

namespace {

void run_panel(const stale::driver::Cli& cli, double lambda) {
  stale::driver::ExperimentConfig base;
  base.num_servers = 10;
  base.lambda = lambda;
  base.model = stale::driver::UpdateModel::kPeriodic;
  base.job_size = "pareto_fig10";
  cli.apply_run_scale(base);
  // The paper runs each heavy-tailed experiment >= 30 times; the reduced
  // default uses 9 trials so the quartiles remain meaningful.
  if (!cli.has("trials")) base.trials = cli.has("paper") ? 30 : 9;

  const std::vector<std::string> policies = {"random", "k_subset:2",
                                             "basic_li", "aggressive_li"};
  std::cout << "\n## panel: lambda = " << lambda
            << " (cells: median [p25,p75] (min..max) across trials)\n";
  stale::driver::SweepOptions options;
  options.csv = cli.csv();
  options.box_stats = true;
  options.precision = 2;
  stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 32.0), policies,
                             std::cout, options);
}

}  // namespace

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::bench::print_header(
            "Figure 10",
            "Bounded Pareto jobs (alpha = 1.1, max = 1000x mean), periodic "
            "update",
            cli, "n = 10; panels lambda = 0.5, 0.7, 0.9");
        for (double lambda : {0.5, 0.7, 0.9}) run_panel(cli, lambda);
      });
}
