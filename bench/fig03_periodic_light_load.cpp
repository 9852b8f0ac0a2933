// Figure 3: the Figure 2 sweep at the lighter load lambda = 0.5. Expected
// shape: the same algorithm ordering with muted gaps — load balancing
// matters less when servers are half idle, and the k-subset blow-up at large
// T is milder than at lambda = 0.9.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.5;
        base.model = stale::driver::UpdateModel::kPeriodic;
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Figure 3",
            "service time vs. update delay, periodic update, light load",
            cli, "n = 10, lambda = 0.5, exp(1) jobs");

        const std::vector<std::string> policies = {
            "random",      "k_subset:2", "k_subset:3",
            "k_subset:10", "basic_li",   "aggressive_li"};
        stale::driver::SweepOptions options;
        options.csv = cli.csv();
        stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 128.0),
                                   policies, std::cout, options);
      });
}
