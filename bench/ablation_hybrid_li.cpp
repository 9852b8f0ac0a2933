// Ablation: the Hybrid LI variant (paper Section 4.1.1 — described but "not
// analyzed further"). Expected shape under periodic update: Hybrid falls
// between Basic LI and Aggressive LI, as the paper states.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Ablation: Hybrid LI",
            "Basic vs. Hybrid vs. Aggressive LI, periodic update", cli,
            "n = 10, lambda = 0.9");

        const std::vector<std::string> policies = {
            "basic_li", "hybrid_li", "aggressive_li", "random"};
        stale::driver::SweepOptions options;
        options.csv = cli.csv();
        stale::driver::run_t_sweep(base, stale::bench::t_grid(cli, 64.0),
                                   policies, std::cout, options);
      });
}
