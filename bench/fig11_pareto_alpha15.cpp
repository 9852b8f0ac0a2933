// Figure 11: the heavy-tailed sweep with the lighter Bounded Pareto tail
// (alpha = 1.5, max = 1024x mean, mean = 1) at lambda = 0.9. Expected shape:
// the same qualitative story as Figure 10 with smaller absolute times.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        base.job_size = "pareto_fig11";
        cli.apply_run_scale(base);
        if (!cli.has("trials")) base.trials = cli.has("paper") ? 30 : 9;

        stale::bench::print_header(
            "Figure 11",
            "Bounded Pareto jobs (alpha = 1.5, max = 1024x mean), periodic "
            "update",
            cli,
            "n = 10, lambda = 0.9; cells: median [p25,p75] (min..max) across "
            "trials");

        const std::vector<std::string> policies = {"random", "k_subset:2",
                                                   "basic_li",
                                                   "aggressive_li"};
        stale::driver::SweepOptions options;
        options.csv = cli.csv();
        options.box_stats = true;
        options.precision = 2;
        stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 32.0),
                                   policies, std::cout, options);
      });
}
