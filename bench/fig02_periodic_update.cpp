// Figure 2: mean response time vs. update interval T under the periodic
// update (bulletin board) model at the default heavy load (n = 10,
// lambda = 0.9). Series: random (k = 1), k-subset for k = 2, 3, n, Basic LI,
// Aggressive LI. The paper's panels (a)/(b) are the same data at two x-axis
// ranges; the full grid here covers both.
#include <iostream>

#include "bench_common.h"
#include "driver/table.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv,
      {{"lambda", "L", "per-server load"}, {"n", "N", "cluster size"}},
      [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = cli.integer<int>("n", 10);
        base.lambda = cli.number("lambda", 0.9);
        base.model = stale::driver::UpdateModel::kPeriodic;
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Figure 2", "service time vs. update delay, periodic update model",
            cli,
            "n = " + std::to_string(base.num_servers) +
                ", lambda = " + stale::driver::Table::fmt(base.lambda, 2) +
                ", exp(1) jobs; cells: mean response +- 90% CI");

        const std::vector<std::string> policies = {
            "random",
            "k_subset:2",
            "k_subset:3",
            "k_subset:" + std::to_string(base.num_servers),
            "basic_li",
            "aggressive_li"};
        stale::driver::SweepOptions options;
        options.csv = cli.csv();
        stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 128.0),
                                   policies, std::cout, options);
      });
}
